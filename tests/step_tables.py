"""The step and edge arrays of a ball or window, read back as plain
containers: per vertex a {signed letter: index} dict keyed 1, -1, 2, -2,
..., and per edge id a (source, generator, target) tuple.  Tests compare
and pin these, so a pin made on either form holds for the other.
"""


def step_items(steps):
    """Per vertex, its steps that stay in the ball, in letter order."""
    return [
        {s: j for s, j in zip(steps, row) if j >= 0}
        for row in zip(*steps.values())
    ]


def edge_list(complex_):
    """(source, generator, target) per edge id, read off the id arrays."""
    edges = [None] * complex_.edge_count
    for g, ids in complex_.edge_ids.items():
        for s, e in enumerate(ids):
            if e >= 0:
                edges[e] = (s, g, complex_.steps[g][s])
    return edges
