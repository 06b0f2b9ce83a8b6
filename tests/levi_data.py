"""Every proper induction datum of g_N, up to Levi conjugacy: each multiset
of gl block sizes, each gl orbit on each block and each residual orbit.
orbitforge searches only the maximal data gl_q[1^q] x g_{N-2q}[nu]; this
exhaustive list is the reference the tests hold that search to."""

from orbitforge.orbits import InductionDatum
from orbitforge.partitions import admissible_partitions, all_partitions


def enumerate_levi_data(N: int, eps: int) -> list:
    """All data of total gl size 1 .. N // 2, by increasing total, then gl
    sizes, then gl orbits, then residual orbit (some have zero nilradical)."""
    out = []
    for total in range(1, N // 2 + 1):
        residuals = admissible_partitions(N - 2 * total, eps)
        for sizes in all_partitions(total):
            for gls in _gl_orbit_choices(sizes.parts):
                out.extend(InductionDatum(N, eps, gls, res) for res in residuals)
    return out


def _gl_orbit_choices(sizes) -> list:
    """All assignments of a gl_a orbit (any partition of a) per block."""
    if not sizes:
        return [()]
    rest = _gl_orbit_choices(sizes[1:])
    return [((sizes[0], mu),) + r for mu in all_partitions(sizes[0]) for r in rest]
