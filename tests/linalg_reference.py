"""Leading-block ranks of a single matrix over F_q, for the tests.

No program code asks for them: the sweeps hand whole stacks of blow-ups to
``linalg.blowup_leading_ranks``.
"""

from higgsflow.linalg import _residue_dtype, blowup_leading_ranks


def mat_leading_ranks(m, shapes) -> list[int]:
    """Rank of m[:rows, :cols] for each (rows, cols) in shapes, from one
    elimination of m's blow-up."""
    big = m.blowup().astype(_residue_dtype(m.ctx.p))[None]
    return blowup_leading_ranks(m.ctx, big, shapes)[0].tolist()
