"""Build a small assessment graph by hand and inspect the propagation operator.

The graph has two node types (users and items) and three relations: who is
friends with whom, who owns which item, and who graded which item.  The
model propagates information over a single normalized matrix combining all
three, so it is worth seeing that matrix with your own eyes once.
"""

import numpy as np

from peergrade import build_graph, propagation_matrix, validate

# Three students; u1 and u2 are friends. u1 owns the first item, u2 the
# second. Everyone grades the item they do not own.
graph = build_graph(
    assessments=[
        ("u2", "item-a", 0.9),   # u2 grades their friend's work... generously?
        ("u3", "item-a", 0.6),
        ("u1", "item-b", 0.7),
        ("u3", "item-b", 0.8),
    ],
    ownerships=[("u1", "item-a", 1.0), ("u2", "item-b", 1.0)],
    social=[("u1", "u2", 1.0)],
)

print(f"users: {graph.user_ids}")
print(f"items: {graph.item_ids}")
print(f"assessment matrix (dense):\n{graph.A.toarray()}")

# The graph was checked when it was built; validate lists isolated nodes only.
print(f"warnings: {validate(graph)}")

prop = propagation_matrix(graph)
print(f"\nnode degrees (stored entries per row, self-loop included): {prop.degrees}")

# Rows 0..n-1 are users, n..n+m-1 are items. Each row of N averages the
# incoming edge weights by the *count* of neighbors, so a node with many
# light edges is not drowned out by one heavy edge.
with np.printoptions(precision=3, suppress=True):
    print(f"normalized propagation matrix N:\n{prop.N.toarray()}")

row_sums = np.asarray(prop.N.sum(axis=1)).ravel()
print(f"\nrow sums (exactly 1.0 wherever all stored weights are 1): {np.round(row_sums, 3)}")
