"""adele-forge: exact adelic complexes, Milnor K-symbols, intersection
pairings and the Weil pairing on curves and surfaces over finite fields,
each cross-checked against a classical oracle."""

__version__ = "0.1.0"
