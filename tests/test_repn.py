from fractions import Fraction

import pytest

from superkon.exactnum import GaussRat, I, Scalar, UsageError
from superkon.linalg import mat_add, mat_scale
from superkon.repn import (build_so2, build_so3_vm, check_so_relations,
                           rep_from_config)

P = ("a", "b", "c")


def gr(x):
    if isinstance(x, str):
        return Scalar.parse(P, x)
    return Scalar.const(P, x)


def test_build_so2_direct():
    rep = build_so2(1, 0, P)
    assert rep.dim == 1
    assert rep.gen[(1, 2)][0][0] == gr(1)
    assert rep.z_scalar == gr(0)


def test_build_so2_trivial():
    rep = build_so2(0, 0, P)
    assert rep.gen[(1, 2)][0][0].is_zero()


def test_build_so2_degenerate_locus():
    rep = build_so2(1, -I, P)
    b = rep.gen[(1, 2)][0][0]
    c = rep.z_scalar
    assert (b * b + c * c).is_zero()


def lowering(rep):
    # F_13 + i F_23
    return mat_add(rep.gen[(1, 3)], mat_scale(rep.gen[(2, 3)], I))


def raising(rep):
    # -F_13 + i F_23
    return mat_add(mat_scale(rep.gen[(1, 3)], -1), mat_scale(rep.gen[(2, 3)], I))


def test_vm_lowering_line():
    rep = build_so3_vm(1, gr("c"), P)
    # lowering on v_1 gives 1 * v_0
    col = [row[1] for row in lowering(rep)]
    assert col[0] == gr(1)
    assert col[1].is_zero()


def test_vm_raising_line():
    rep = build_so3_vm(1, gr("c"), P)
    # raising on v_0 gives (2m - 0) v_1 = 1 * v_1
    col = [row[0] for row in raising(rep)]
    assert col[1] == gr(1)
    assert col[0].is_zero()


def test_vm_trivial():
    rep = build_so3_vm(0, gr(0), P)
    assert rep.dim == 1
    assert all(rep.gen[k][0][0].is_zero() for k in rep.gen)


@pytest.mark.parametrize("two_m", [0, 1, 2, 3, 4])
def test_vm_relations(two_m):
    rep = build_so3_vm(two_m, gr("c"), P)
    assert check_so_relations(rep).status == "pass"


def test_so2_relations_trivially_pass():
    assert check_so_relations(build_so2(1, 1, P)).status == "pass"


def test_perturbed_matrix_fails():
    rep = build_so3_vm(2, gr(0), P)
    rep.gen[(1, 2)][0][1] = rep.gen[(1, 2)][0][1] + gr(1)
    rpt = check_so_relations(rep)
    assert rpt.status == "fail"
    assert rpt.violations


def test_ladder_roundtrip_on_top():
    # lowering after raising on v_0 scales by 2m
    for two_m in (1, 2, 3):
        rep = build_so3_vm(two_m, gr(0), P)
        up = [row[0] for row in raising(rep)]
        acc = [Scalar.zero(P) for _ in range(rep.dim)]
        low = lowering(rep)
        for j, cj in enumerate(up):
            if not cj.is_zero():
                for i in range(rep.dim):
                    acc[i] = acc[i] + low[i][j] * cj
        assert acc[0] == gr(two_m)
        assert all(acc[i].is_zero() for i in range(1, rep.dim))


def test_weight_spectrum():
    two_m = 3
    rep = build_so3_vm(two_m, gr(0), P)
    w = mat_scale(rep.gen[(1, 2)], GaussRat(0, 2))  # 2i F_12
    for j in range(rep.dim):
        assert w[j][j] == gr(two_m - 2 * j)
        for i in range(rep.dim):
            if i != j:
                assert w[i][j].is_zero()


def test_rep_from_config_so2():
    rep = rep_from_config({"kind": "so2", "b": "1", "c": "0"}, P)
    assert rep.dim == 1 and rep.gen[(1, 2)][0][0] == gr(1)


def test_rep_from_config_so3():
    rep = rep_from_config({"kind": "so3_Vm", "two_m": 1, "c": "-1/2"}, P)
    assert rep.dim == 2
    assert rep.z_scalar == gr(Fraction(-1, 2))


def test_rep_from_config_matrices_gatekeeper():
    good = {"kind": "matrices", "c": "0",
            "gen": {"1,2": [["0", "1"], ["-1", "0"]]}}
    rep = rep_from_config(good, P)
    assert rep.N == 2 and rep.dim == 2

    ladder = build_so3_vm(1, gr(0), P)
    good3 = {"kind": "matrices", "c": "0",
             "gen": {f"{i},{j}": [[str(x) for x in row] for row in m]
                     for (i, j), m in ladder.gen.items()}}
    rep3 = rep_from_config(good3, P)
    assert rep3.N == 3 and rep3.dim == 2

    # zero ladder generators with nonzero F_12 break [F_13, F_23] = F_12
    bad = {"kind": "matrices", "c": "0",
           "gen": {"1,2": [["0", "1"], ["-1", "0"]],
                   "1,3": [["0", "0"], ["0", "0"]],
                   "2,3": [["0", "0"], ["0", "0"]]}}
    with pytest.raises(UsageError):
        rep_from_config(bad, P)


FLOATS = (0.1, 0.5, 1e-7, True)


@pytest.mark.parametrize("value", FLOATS)
@pytest.mark.parametrize("cfg,field", [
    ({"kind": "so2", "c": "0"}, "b"),
    ({"kind": "so2", "b": "1"}, "c"),
    ({"kind": "so3_Vm", "two_m": 1}, "c"),
])
def test_rep_config_rejects_float_and_bool(cfg, field, value):
    with pytest.raises(UsageError, match=f"'{field}'.*{type(value).__name__}"):
        rep_from_config({**cfg, field: value}, P)


@pytest.mark.parametrize("value", FLOATS)
def test_rep_config_rejects_float_and_bool_matrix_entry(value):
    cfg = {"kind": "matrices", "c": "0",
           "gen": {"1,2": [["0", value], ["-1", "0"]]}}
    with pytest.raises(UsageError, match=r"'gen\[1,2\]'"):
        rep_from_config(cfg, P)


@pytest.mark.parametrize("key", ["1;2", "a,b", "1,2,3", "1"])
def test_rep_config_rejects_malformed_generator_key(key):
    with pytest.raises(UsageError):
        rep_from_config({"kind": "matrices", "c": "0",
                         "gen": {key: [["0", "1"], ["-1", "0"]]}}, P)


J2 = [["0", "1"], ["-1", "0"]]
Z2 = [["0", "0"], ["0", "0"]]


@pytest.mark.parametrize("fields", [
    {"gen": {"2,1": J2}},                                # i > j
    {"gen": {"1,2": []}},                                # empty matrix
    {"gen": {"1,3": Z2}},                                # no F_12, F_23
    {"gen": {"1,2": J2, "1,3": Z2}},                     # no F_23
    {"N": 3, "gen": {"1,2": J2}},                        # N=3 given
    {"gen": {"1,2": J2, "01,2": J2}},                    # F_12 twice
    {"gen": {"0,1": J2}},                                # index below 1
    {"gen": {"1,2": [["0", "1"]]}},                      # not square
    {"gen": {"1,2": J2, "1,3": [["0"]], "2,3": Z2}},     # sizes differ
    {"gen": {"1,2": ["0b", "b0"]}},                      # rows as text
    {"gen": {"1,2": 5}},                                 # not a list
], ids=["misordered", "empty", "only_13", "no_23", "n3_only_12", "repeated",
        "index_0", "not_square", "sizes_differ", "text_rows", "not_a_list"])
def test_rep_config_rejects_bad_generator_family(fields):
    with pytest.raises(UsageError, match=r"gen\[|generators F_ij"):
        rep_from_config({"kind": "matrices", "c": "0", **fields}, P)


@pytest.mark.parametrize("cfg", [
    [{"kind": "so2", "b": "0", "c": "0"}],               # config not a dict
    {"kind": "matrices", "c": "0", "gen": [["1,2", J2]]},  # gen not a dict
    {"kind": "matrices", "c": "0", "gen": "1,2"},        # gen as text
], ids=["config_list", "gen_list", "gen_text"])
def test_rep_config_rejects_bad_shape(cfg):
    with pytest.raises(UsageError):
        rep_from_config(cfg, P)


@pytest.mark.parametrize("value", [1.0, True, "1.5"])
def test_rep_config_rejects_non_integer_two_m(value):
    with pytest.raises(UsageError):
        rep_from_config({"kind": "so3_Vm", "two_m": value, "c": "0"}, P)


def test_rep_config_takes_int_and_text():
    rep = rep_from_config({"kind": "so2", "b": 1, "c": "2/5"}, P)
    assert rep.gen[(1, 2)][0][0] == gr(1)
    assert rep.z_scalar == gr(Fraction(2, 5))
    assert rep_from_config({"kind": "so3_Vm", "two_m": "2", "c": -1}, P).dim == 3


def test_generator_antisymmetry():
    rep = build_so3_vm(2, gr(0), P)
    g = rep.generator(3, 1)
    assert g == mat_scale(rep.gen[(1, 3)], -1)
