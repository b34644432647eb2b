"""Every resource cap, and the one check that applies them before any work.

A cap belongs to the kernel whose work grows with the size, so the callers
of one kernel share it.  Below its least value a size is bad input
(``ValueError``, CLI exit code 2); above its cap it is refused
(:class:`ResourceLimitError`, exit code 3).  Callers read the caps here at
call time."""

from __future__ import annotations


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds a hard combinatorial size guard."""


MAX_DIAGONAL_N = 10  # points of a diagonal partition: the open-arc DP, its operator oracles, the listings
MAX_NORM_BITS = 425_000  # nhat * bits(E) of the one-row creation norm's peak [nhat + 1]_{q,t}: its powers' size
MAX_OPERATOR_WORD = 12  # tokens of a vacuum expectation and of fock.apply_word
MAX_SYMMETRIZER_WORDS = 800  # the d^n words of the level-n symmetrizer over d letters
MAX_FAMILY_NMAX = 64  # moment order and polynomial degree of the CLI families, hence 2 nmax of euler
MAX_SYMBOLIC_MOMENTS_NMAX = 20  # moment order of diagfock moments --symbolic: Poisson's walk, ~7 s at 20 on 2 cores
MAX_SYMBOLIC_POLYS_NMAX = 12  # polynomial degree of diagfock polys --symbolic: Poisson's recurrence, ~10 s at 12
MAX_CF_DEPTH = 1024  # continued-fraction depth of diagfock cauchy
MAX_PARTITION_ITEMS = 100_000  # rows of one diagfock partitions listing, counted before it is built


def shown(n) -> str:
    """n as a message writes it: an int past 2 000 bits by its bit length,
    since ``str`` refuses an int longer than ``sys.get_int_max_str_digits()``
    digits, a limit that may be set as low as 640."""
    if isinstance(n, int) and n.bit_length() > 2000:
        return f"({'a negative' if n < 0 else 'an'} int of {n.bit_length()} bits)"
    return str(n)


def check_size(what: str, n, cap, least=0):
    """n, if least <= n <= cap: a ValueError below least, a
    ResourceLimitError above cap, each naming what, n and the bound."""
    if n < least:
        raise ValueError(f"{what} is {shown(n)}, but must be >= {least}")
    if n > cap:
        raise ResourceLimitError(f"{what} is {shown(n)}, but is guarded at <= {cap}")
    return n
