"""Independent constructions the tests check the library's fast paths against."""

from skewcodes import (MixedStructureError, TruncLaurent, VecLaurent, laurent_mul,
                       n_operator, veclaurent_times_scalar, xnegn_direct)
from skewcodes.algebra import AlgebraElement
from skewcodes.skewseries import require_series_ring


def veclaurent_times_scalar_direct(s: VecLaurent, a: AlgebraElement) -> VecLaurent:
    """s a = (s X^{n_0}) (X^{-n_0} a) with X^{-n_0} a expanded through the
    composed maps sigma' delta'^{k_1} ... sigma' delta'^{k_{n_0}}."""
    ctx = s.ctx
    if a.algebra != ctx.algebra:
        raise MixedStructureError("scalar from a different algebra")
    require_series_ring(ctx)
    if s.is_zero() or s.ord >= 0:
        return veclaurent_times_scalar(s, a)
    n0 = -s.ord
    const = TruncLaurent(ctx, 0, a.coords[None, :], None)
    return laurent_mul(s.shift(n0), xnegn_direct(const, n0))


def reach_direct(ctx, n: int, depth: int) -> int:
    """1 + the largest k < depth with N_i^k != 0 for some i < n, else 0,
    read off n_operator one matrix at a time."""
    return max((k + 1 for k in range(depth) for i in range(min(n, k + 1))
                if n_operator(ctx, i, k).matrix.any()), default=0)
