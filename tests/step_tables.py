"""The step arrays of a ball or window, read back as plain containers:
per vertex a {signed letter: index} dict keyed 1, -1, 2, -2, ..., and
the window's edges as (source, generator, target) tuples.  Tests compare
and pin these, so a pin made on either form holds for the other.  Tests
that pin how many products a ball forms count them with
``counting_multiply``.
"""


def counting_multiply(oracle):
    """Wrap this oracle's ``multiply`` to count its calls; the returned
    one-item list holds the count so far."""
    calls = [0]
    multiply = oracle.multiply

    def counted(g, h):
        calls[0] += 1
        return multiply(g, h)

    oracle.multiply = counted
    return calls


def step_items(steps):
    """Per vertex, its steps that stay in the ball, in letter order."""
    return [
        {s: j for s, j in zip(steps, row) if j >= 0}
        for row in zip(*steps.values())
    ]


def edge_list(complex_):
    """(source, generator, target) per edge, in (vertex, generator) order."""
    return [
        (i, g, j)
        for i, step in enumerate(step_items(complex_.steps))
        for g, j in step.items()
        if g > 0
    ]


def edge_ranks(complex_):
    """{edge id: its index in ``edge_list``}.  An edge's id is v*m + g - 1,
    with gaps where no edge starts; the rank is dense, so it indexes the
    test matrices' edge columns, and the pinned window digests hash it."""
    m = complex_.group.generator_count
    return {s * m + g - 1: rank for rank, (s, g, _) in enumerate(edge_list(complex_))}
