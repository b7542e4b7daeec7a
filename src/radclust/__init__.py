"""Shape- and centroid-independent clustering on radius graphs.

Points are joined into a graph whose edges connect pairs closer than a radius
``r``; the graph's connected components are the clusters, labeled straight
from the adjacency matrix by hooking and pointer jumping.  The paper's
route, a covering matrix power by repeated boolean squaring read through row
masks, gives the same partition and stays as the reference.  No centroids,
no preset cluster count, no shape assumptions: a ring, a chain and a blob
are each one cluster as long as their points stay chained within ``r``.

The package re-exports nothing.  Import each name from the module that
defines it and lists it in ``__all__``, e.g.
``from radclust.clustering import cluster_pointset``:

* ``geometry``   the ``PointSet`` container, radius-graph adjacency matrix
* ``clustering`` component labels, size-ranked tables
* ``matpower``   the paper's reference: boolean powers by repeated squaring,
  mask labels, components oracle; only ``cli`` imports it, inside ``bench``
* ``scenarios``  deterministic synthetic scene generators
* ``trajectory`` per-frame clustering and split/merge events
* ``svgplot``    deterministic SVG scatter plots
* ``io``         CSV/JSON formats and the lat/lon projection
* ``cli``        the ``radclust`` command-line tool
"""

__version__ = "0.1.0"
