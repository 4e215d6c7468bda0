"""Finite-dimensional inputs for tensor modules: representations of the
orthogonal algebra so_N extended by a central scalar z.

A representation is stored through the images of the antisymmetric
generators ``F_ij = E_ji - E_ij`` (for ``i < j``), as dense Scalar
matrices acting on column index = basis index; ``z`` acts as the scalar
``z_scalar`` times the identity.

Two built-in families:

* ``build_so2(b, c)`` -- the one-dimensional so_2 family, ``F_12 -> (b)``;
* ``build_so3_vm(two_m, c)`` -- the ladder family on basis
  ``v_0 .. v_{2m}`` (``two_m = 2m``), fixed by

  - ``2i F_12 v_j = 2(m - j) v_j``,
  - ``(F_13 + i F_23) v_j = j v_{j-1}``          (lowering),
  - ``(-F_13 + i F_23) v_j = (2m - j) v_{j+1}``  (raising),

  with ``v_{-1} = v_{2m+1} = 0``.

A user-supplied generator family is accepted for general ``N`` when it
holds every ``F_ij`` with ``i < j``; :func:`check_so_relations`, which
tests only the pairs it is given, is the gatekeeper that the commutators match
``[F_ij, F_kl] = d_il F_kj + d_jk F_li + d_ik F_jl + d_jl F_ik``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .exactnum import GaussRat, Scalar, TextReader, UsageError, as_scalar
from .linalg import mat_add, mat_commutator, mat_eq, mat_scale, mat_sub, mat_zeros
from .report import Report, finish, violation


@dataclass
class SoRep:
    N: int
    dim: int
    gen: dict              # (i, j) with i < j  ->  dim x dim Scalar matrix
    z_scalar: Scalar
    params: tuple
    label: str = ""

    def generator(self, i: int, j: int):
        """Image of ``F_ij`` for any i != j (antisymmetric in i, j)."""
        if i == j or not (1 <= i <= self.N and 1 <= j <= self.N):
            raise UsageError(f"bad generator indices ({i}, {j})")
        if i < j:
            return self.gen[(i, j)]
        return mat_scale(self.gen[(j, i)], -1)

    def at(self, assignment: dict) -> "SoRep":
        """This representation with its generator matrices and ``z_scalar``
        evaluated at ``assignment`` (see :meth:`Scalar.at
        <superkon.exactnum.Scalar.at>`); the label is kept."""
        return replace(self, gen={ij: [[x.at(assignment) for x in row]
                                       for row in mat]
                                  for ij, mat in self.gen.items()},
                       z_scalar=self.z_scalar.at(assignment))

    def constant_over(self, params) -> "SoRep":
        """This representation, with constant entries (as after
        :meth:`at`), over the parameter list ``params``."""
        params = tuple(params)

        def over(x: Scalar) -> Scalar:
            re, im, d = x.const_parts()
            return Scalar(params, {(0,) * len(params): (re, im)}, d)

        return replace(self, gen={ij: [[over(x) for x in row] for row in mat]
                                  for ij, mat in self.gen.items()},
                       z_scalar=over(self.z_scalar), params=params)


def _const(params, x) -> Scalar:
    if isinstance(x, str):
        return Scalar.parse(params, x)
    return as_scalar(params, x)


def build_so2(b, c, params=("a", "b", "c")) -> SoRep:
    """The 1-dimensional so_2 + Cz module: ``F_12 v = b v``, ``z v = c v``."""
    params = tuple(params)
    b = _const(params, b)
    c = _const(params, c)
    return SoRep(N=2, dim=1, gen={(1, 2): [[b]]}, z_scalar=c, params=params,
                 label=f"so2(b={b},c={c})")


def build_so3_vm(two_m: int, c, params=("a", "b", "c")) -> SoRep:
    """The (2m+1)-dimensional so_3 ladder module, ``two_m = 2m >= 0``."""
    if two_m < 0:
        raise UsageError("two_m must be a nonnegative integer")
    params = tuple(params)
    c = _const(params, c)
    dim = two_m + 1
    f12 = mat_zeros(params, dim)
    f13 = mat_zeros(params, dim)
    f23 = mat_zeros(params, dim)
    for j in range(dim):
        # F_12 = diag(-i(m - j)); ladder coefficients from solving the
        # two displayed combinations for F_13 and F_23
        f12[j][j] = Scalar.const(params, GaussRat(0, Fraction(-(two_m - 2 * j), 2)))
        if j > 0:
            f13[j - 1][j] = Scalar.const(params, Fraction(j, 2))
            f23[j - 1][j] = Scalar.const(params, GaussRat(0, Fraction(-j, 2)))
        if j < two_m:
            f13[j + 1][j] = Scalar.const(params, Fraction(-(two_m - j), 2))
            f23[j + 1][j] = Scalar.const(params, GaussRat(0, Fraction(-(two_m - j), 2)))
    return SoRep(N=3, dim=dim, gen={(1, 2): f12, (1, 3): f13, (2, 3): f23},
                 z_scalar=c, params=params, label=f"so3_Vm(2m={two_m},c={c})")


def so_structure_rhs(rep: SoRep, i: int, j: int, k: int, l: int):
    """Right side of ``[F_ij, F_kl]`` in terms of generator images."""
    out = mat_zeros(rep.params, rep.dim)
    for hit, p, q in ((i == l, k, j), (j == k, l, i),
                      (i == k, j, l), (j == l, i, k)):
        if hit and p != q:
            out = mat_add(out, rep.generator(p, q))
    return out


def check_so_relations(rep: SoRep) -> Report:
    """All commutator relations of so_N as exact matrix identities."""
    t0 = time.monotonic()
    pairs = sorted(rep.gen)
    bad = []
    n = 0
    for (i, j) in pairs:
        for (k, l) in pairs:
            n += 1
            lhs = mat_commutator(rep.generator(i, j), rep.generator(k, l))
            rhs = so_structure_rhs(rep, i, j, k, l)
            if not mat_eq(lhs, rhs):
                diff = mat_sub(lhs, rhs)
                bad.append(violation(
                    f"[F_{i}{j}, F_{k}{l}]",
                    lhs="; ".join(str(x) for row in lhs for x in row),
                    rhs="; ".join(str(x) for row in rhs for x in row),
                    diff="; ".join(str(x) for row in diff for x in row)))
    return finish(f"so_relations[{rep.label}]", bad, n, t0)


def _config_text(value, field: str) -> str:
    """The text of a config value, which must be an int or text.  A float
    or bool is a caller mistake (UsageError): a JSON float is binary, and
    whether its printed text reads back as the intended value depends on
    how Python prints it (``0.1`` does, ``1e-7`` does not)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise UsageError(f"config field {field!r} must be an integer or "
                         f"text, not {type(value).__name__}")
    return str(value)


def config_dict(value, field: str) -> dict:
    """A config value that must be a dict (a JSON object)."""
    if not isinstance(value, dict):
        raise UsageError(f"config field {field!r} must be an object, "
                         f"not {type(value).__name__}")
    return value


def config_scalar(params, value, field: str) -> Scalar:
    """A config value as a Scalar, read in the grammar of
    :mod:`superkon.exactnum`."""
    return Scalar.parse(params, _config_text(value, field))


def config_int(value, field: str) -> int:
    """A config value as an integer."""
    r = TextReader(_config_text(value, field))
    return r.done(r.integer())


def rep_from_config(cfg: dict, params=("a", "b", "c")) -> SoRep:
    """Build a representation from its JSON-style config dict.  Kind
    ``"matrices"`` takes exactly the generators F_ij, 1 <= i < j <= N,
    as nonempty square matrices of one size, keyed ``"i,j"``."""
    params = tuple(params)
    kind = config_dict(cfg, "rep").get("kind")
    if kind == "so2":
        return build_so2(config_scalar(params, cfg.get("b", "b"), "b"),
                         config_scalar(params, cfg.get("c", "c"), "c"), params)
    if kind == "so3_Vm":
        if "two_m" not in cfg:
            raise UsageError("so3_Vm rep config requires field 'two_m'")
        return build_so3_vm(config_int(cfg["two_m"], "two_m"),
                            config_scalar(params, cfg.get("c", "c"), "c"), params)
    if kind == "matrices":
        gen_cfg = config_dict(cfg.get("gen", {}), "gen")
        if not gen_cfg:
            raise UsageError("matrices rep config requires field 'gen'")
        gen = {}
        N = config_int(cfg.get("N", 0), "N")
        dim = None
        for key, rows in gen_cfg.items():
            r = TextReader(key)
            i = r.integer()
            r.expect(",")
            j = r.done(r.integer())
            if (i, j) in gen:
                raise UsageError(f"gen[{key}] repeats F_{i}{j}")
            if not (isinstance(rows, list)
                    and all(isinstance(row, list) for row in rows)):
                raise UsageError(f"gen[{key}] must be a list of rows")
            mat = [[config_scalar(params, x, f"gen[{key}]") for x in row]
                   for row in rows]
            if dim is None:
                dim = len(mat)
            if not dim or len(mat) != dim or any(len(r) != dim for r in mat):
                raise UsageError(f"gen[{key}] is not a nonempty square "
                                 f"matrix of the common size")
            gen[(i, j)] = mat
            N = max(N, i, j)
        want = {(i, j) for j in range(1, N + 1) for i in range(1, j)}
        if set(gen) != want:
            raise UsageError(f"matrices rep config needs exactly the "
                             f"generators F_ij, 1 <= i < j <= {N}; "
                             f"got {sorted(gen)}")
        rep = SoRep(N=N, dim=dim, gen=gen,
                    z_scalar=config_scalar(params, cfg.get("c", "c"), "c"),
                    params=params, label="matrices")
        rel = check_so_relations(rep)
        if not rel.ok:
            raise UsageError(
                f"supplied matrices violate the so_{N} relations: "
                f"{rel.violations[0]['inputs']}")
        return rep
    raise UsageError(f"unknown rep kind {kind!r}")
