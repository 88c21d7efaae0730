"""Exact arithmetic for dual graphs of Shimura curves of discriminant pq.

Over the rationals, with no floating point, the package builds the dual
graph of the special fiber at p of X^pq (from ideal classes of a maximal
order in the quaternion algebra ramified at q and infinity), Gross and
Eisenstein vectors, the component groups of the regular model of X^pq/w_q,
and runs the Parent-Yafaev cycle criterion, with re-checkable certificates.
"""

__version__ = "0.1.0"
