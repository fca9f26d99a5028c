import itertools

import numpy as np
import pytest

from gmacsec import (
    DimensionMismatch,
    EnumerationTooLarge,
    GmacError,
    NegativeProbability,
    RowSumViolation,
    SchemeDegraded,
    SchemeOneSet,
    SchemeOneSetOuter,
    SchemeTwoSet,
    UnknownVariable,
    max_states,
    scheme_from_dict,
    scheme_to_dict,
)
from gmacsec import fixtures as fx
from gmacsec.infotheory import (
    JointStack,
    _assemble_joint,
    stacked_entropy,
    stacked_mutual_information,
)

import scalar_oracle as oracle
from conftest import binary_entropy

H_TENTH = 0.4689955935892812  # binary entropy of 0.1, frozen


def _joint(names, table):
    """One joint over names: a JointStack of one."""
    return JointStack(tuple(names), np.asarray(table, dtype=float)[None])


def entropy(joint, targets, given=()) -> float:
    return float(stacked_entropy(joint, targets, given)[0])


def mutual_information(joint, a, b, given=()) -> float:
    return float(stacked_mutual_information(joint, a, b, given)[0])


def _random_joint(rng, shape, names):
    flat = rng.dirichlet(np.ones(int(np.prod(shape))))
    return _joint(names, flat.reshape(shape))


def _bsc_joint(flip):
    """Uniform input through a symmetric binary flip, variables (X, Y)."""
    table = 0.5 * np.array([[1 - flip, flip], [flip, 1 - flip]])
    return _joint(("X", "Y"), table)


class TestEntropy:
    def test_uniform_is_exact(self):
        joint = _joint(("A",), np.full(8, 0.125))
        assert entropy(joint, "A") == 3.0

    def test_point_mass_is_exact_zero(self):
        table = np.zeros((2, 3))
        table[1, 2] = 1.0
        joint = _joint(("A", "B"), table)
        assert entropy(joint, ("A", "B")) == 0.0

    def test_binary_entropy_frozen_value(self):
        joint = _joint(("A",), np.array([0.9, 0.1]))
        assert entropy(joint, "A") == pytest.approx(H_TENTH, abs=1e-15)
        assert entropy(joint, "A") == pytest.approx(binary_entropy(0.1), abs=1e-15)

    def test_conditional_entropy_of_noise(self):
        joint = _bsc_joint(0.1)
        assert entropy(joint, "Y", given="X") == pytest.approx(H_TENTH, abs=1e-12)

    def test_relabeled_joint_gives_bitwise_identical_entropy(self, rng):
        for _ in range(10):
            joint = _random_joint(rng, (3, 4), ("A", "B"))
            perm_rows = rng.permutation(3)
            perm_cols = rng.permutation(4)
            shuffled = _joint(("A", "B"), joint.prob[0][np.ix_(perm_rows, perm_cols)])
            assert entropy(shuffled, ("A", "B")) == entropy(joint, ("A", "B"))

    def test_overlap_rejected(self):
        joint = _bsc_joint(0.1)
        with pytest.raises(ValueError):
            entropy(joint, "X", given="X")

    def test_unknown_variable(self):
        joint = _bsc_joint(0.1)
        with pytest.raises(UnknownVariable):
            entropy(joint, "Z")

class TestMutualInformation:
    def test_bsc_capacity_value(self):
        joint = _bsc_joint(0.1)
        got = mutual_information(joint, "X", "Y")
        assert got == pytest.approx(1.0 - H_TENTH, abs=1e-12)

    def test_independent_variables_give_dust_at_most(self):
        table = np.outer([0.3, 0.7], [0.25, 0.25, 0.5])
        joint = _joint(("A", "B"), table)
        got = mutual_information(joint, "A", "B")
        assert 0.0 <= got <= 1e-12

    def test_symmetry_is_bitwise(self, rng):
        for _ in range(10):
            joint = _random_joint(rng, (3, 3), ("A", "B"))
            assert mutual_information(joint, "A", "B") == \
                mutual_information(joint, "B", "A")

    def test_chain_rule(self, rng):
        for _ in range(25):
            joint = _random_joint(rng, (2, 3, 2), ("A", "B", "C"))
            lump = mutual_information(joint, "A", ("B", "C"))
            split = mutual_information(joint, "A", "B") \
                + mutual_information(joint, "A", "C", given="B")
            assert lump == pytest.approx(split, abs=1e-12)

    def test_conditioning_never_raises_entropy(self, rng):
        for _ in range(25):
            joint = _random_joint(rng, (2, 2, 3), ("A", "B", "C"))
            assert entropy(joint, "A", given=("B", "C")) <= \
                entropy(joint, "A") + 1e-12

    def test_groups_must_be_disjoint(self):
        joint = _bsc_joint(0.1)
        with pytest.raises(ValueError):
            mutual_information(joint, "X", "X")

    def test_repeated_name_in_group(self):
        joint = _random_joint(np.random.default_rng(0), (2, 2, 2), "ABC")
        with pytest.raises(ValueError):
            mutual_information(joint, ("A", "A"), "B")


class TestJointPMFGuards:
    """The checks one joint gets: those of its JointStack of one."""

    def test_name_count_must_match_rank(self):
        with pytest.raises(DimensionMismatch):
            _joint(("A",), np.full((2, 2), 0.25))

    def test_duplicate_names_rejected(self):
        with pytest.raises(DimensionMismatch, match="duplicate"):
            _joint(("A", "A"), np.full((2, 2), 0.25))

    def test_negative_mass_rejected(self):
        with pytest.raises(NegativeProbability):
            _joint(("A",), np.array([1.5, -0.5]))

    def test_mass_must_be_one(self):
        with pytest.raises(RowSumViolation):
            _joint(("A",), np.array([0.5, 0.4]))

    def test_state_ceiling_env_override(self, monkeypatch):
        monkeypatch.setenv("GMAC_MAX_STATES", "4")
        with pytest.raises(EnumerationTooLarge):
            _joint(("A",), np.full(8, 0.125))
        monkeypatch.setenv("GMAC_MAX_STATES", "8")
        _joint(("A",), np.full(8, 0.125))

    @pytest.mark.parametrize("raw", ["inf", "-inf"])
    def test_infinite_state_ceiling_is_refused(self, raw, monkeypatch):
        monkeypatch.setenv("GMAC_MAX_STATES", raw)
        with pytest.raises(GmacError, match="GMAC_MAX_STATES must be finite"):
            max_states()

    @pytest.mark.parametrize("raw", ["2.5", "0.5"])
    def test_fractional_state_ceiling_is_refused(self, raw, monkeypatch):
        # not truncated to a ceiling of 2, or to 0 and "must be positive"
        monkeypatch.setenv("GMAC_MAX_STATES", raw)
        with pytest.raises(GmacError, match="GMAC_MAX_STATES must be a whole number"):
            max_states()

    @pytest.mark.parametrize("raw, message", [
        ("many", "GMAC_MAX_STATES is not a number: 'many'"),
        ("0", "GMAC_MAX_STATES must be positive, got 0"),
        ("-8", "GMAC_MAX_STATES must be positive, got -8"),
    ])
    def test_state_ceiling_that_is_not_a_positive_number_is_refused(self, raw, message,
                                                                   monkeypatch):
        monkeypatch.setenv("GMAC_MAX_STATES", raw)
        with pytest.raises(GmacError, match=message):
            max_states()

    @pytest.mark.parametrize("raw, value", [("1e7", 10_000_000), ("4.0", 4), ("8", 8)])
    def test_whole_state_ceiling_in_any_notation(self, raw, value, monkeypatch):
        monkeypatch.setenv("GMAC_MAX_STATES", raw)
        assert max_states() == value


def _groups(names):
    """Every nonempty subset of names, as a tuple in names' order."""
    return [c for r in range(1, len(names) + 1) for c in itertools.combinations(names, r)]


class TestKernelMatchesOracle:
    """stacked_entropy and stacked_mutual_information on a stack of one
    against the scalar oracle, by float.hex (which tells -0.0 from 0.0)."""

    NAMES = ("A", "B", "C")

    def test_random_tables_with_zeros(self, rng):
        for _ in range(30):
            shape = tuple(int(k) for k in rng.integers(1, 6, size=3))
            table = rng.dirichlet(np.full(int(np.prod(shape)), 0.5)).reshape(shape)
            table[rng.random(shape) < 0.3] = 0.0
            if not table.any():
                table.reshape(-1)[0] = 1.0
            table /= table.sum()
            joint = _joint(self.NAMES, table)
            for t, g in itertools.product(_groups(self.NAMES), [()] + _groups(self.NAMES)):
                if set(t) & set(g):
                    continue
                assert entropy(joint, t, g).hex() == \
                    oracle.entropy(table, self.NAMES, t, g).hex(), (t, g)
            for a, b in itertools.permutations(_groups(self.NAMES), 2):
                g = tuple(n for n in self.NAMES if n not in a + b)
                if set(a) & set(b):
                    continue
                for given in {(), g[:1], g}:
                    assert mutual_information(joint, a, b, given).hex() == \
                        oracle.mutual_information(table, self.NAMES, a, b, given).hex()

    def test_point_mass_keeps_negative_zero(self):
        table = np.zeros((2, 3))
        table[1, 2] = 1.0
        joint = _joint(("A", "B"), table)
        got = entropy(joint, ("A", "B"))
        assert got.hex() == oracle.entropy(table, ("A", "B"), ("A", "B")).hex()
        assert got.hex() == (-0.0).hex()


class TestSchemes:
    def test_rows_are_renormalized(self):
        scheme = SchemeOneSet(
            p_q_x2=[[0.5], [0.5]],
            p_u_given_q=[[0.3 + 2e-10, 0.7], [0.5, 0.5]],
            p_x1_given_u=np.eye(2),
        )
        assert np.allclose(scheme.p_u_given_q.sum(axis=1), 1.0, atol=1e-15)

    def test_bad_row_mass_rejected(self):
        with pytest.raises(RowSumViolation):
            SchemeOneSet(
                p_q_x2=[[1.0]],
                p_u_given_q=[[0.6, 0.6]],
                p_x1_given_u=np.eye(2),
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            SchemeOneSet(
                p_q_x2=[[0.5], [0.5]],     # |Q| = 2
                p_u_given_q=[[1.0]],       # but only one row here
                p_x1_given_u=[[1.0]],
            )

    def test_dict_roundtrip_all_kinds(self, clean_mac):
        schemes = [
            fx.uniform_u_equals_x1(clean_mac),
            fx.uniform_one_set_outer(clean_mac),
            fx.uniform_two_set_scheme(clean_mac),
            fx.uniform_degraded_scheme(clean_mac),
        ]
        for scheme in schemes:
            doc = scheme_to_dict(scheme)
            again = scheme_from_dict(doc)
            assert type(again) is type(scheme)
            for field in doc:
                if field == "kind":
                    continue
                assert np.array_equal(getattr(again, field), getattr(scheme, field))

    def test_unknown_kind_rejected(self):
        with pytest.raises(DimensionMismatch):
            scheme_from_dict({"kind": "three_set"})

    @pytest.mark.parametrize("build, error, message", [
        (lambda: SchemeOneSet(p_q_x2=[[1.0]], p_u_given_q=[[1.25, -0.25]],
                              p_x1_given_u=np.eye(2)),
         NegativeProbability, "p_u_given_q has a negative entry"),
        (lambda: SchemeOneSet(p_q_x2=[1.0], p_u_given_q=[[1.0]], p_x1_given_u=[[1.0]]),
         DimensionMismatch, "p_q_x2 must have 2 axes, got 1"),
        (lambda: scheme_from_dict({"p_q_x2": [[1.0]]}),
         DimensionMismatch, "scheme document lacks a kind"),
        (lambda: scheme_from_dict([]), DimensionMismatch, "scheme document lacks a kind"),
        (lambda: scheme_from_dict({"kind": "one_set", "p_q_x2": [[1.0]],
                                   "p_u_given_q": "half", "p_x1_given_u": [[1.0]]}),
         DimensionMismatch, "malformed scheme document"),
        (lambda: scheme_from_dict({"kind": "one_set", "p_q_x2": [[1.0]],
                                   "p_u_given_q": [[1.0]]}),
         DimensionMismatch, "malformed scheme document"),
    ], ids=["negative_entry", "axis_count", "no_kind", "not_a_dict", "bad_field",
            "missing_field"])
    def test_malformed_schemes_rejected(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    def test_unknown_keys_rejected(self, clean_mac):
        # an outer document relabelled as one_set, with a misspelled key:
        # neither p_v_given_q nor the typo is dropped silently
        doc = {**scheme_to_dict(fx.uniform_one_set_outer(clean_mac)),
               "kind": "one_set", "p_u_givn_q": [[1.0, 0.0]]}
        with pytest.raises(DimensionMismatch, match="unknown keys") as err:
            scheme_from_dict(doc)
        assert "p_v_given_q" in str(err.value) and "p_u_givn_q" in str(err.value)

    def test_non_scheme_rejected(self):
        with pytest.raises(TypeError):
            scheme_to_dict(object())


class TestAssembly:
    """Each kind's joint of one scheme: stacked_joint with N = 1."""

    def test_one_set_joint_shape_and_mass(self, clean_mac):
        joint = _assemble_joint(fx.uniform_u_equals_x1(clean_mac), clean_mac)
        assert joint.variables == ("Q", "U", "X1", "X2", "Y", "Y2")
        assert joint.prob.sum() == pytest.approx(1.0, abs=1e-12)

    def test_outer_joint_adds_second_auxiliary(self, clean_mac):
        joint = _assemble_joint(fx.uniform_one_set_outer(clean_mac), clean_mac)
        assert joint.variables == ("Q", "U", "V", "X1", "X2", "Y", "Y2")

    def test_two_set_joint_keeps_both_feedback_outputs(self, clean_mac):
        joint = _assemble_joint(fx.uniform_two_set_scheme(clean_mac), clean_mac)
        assert joint.variables == ("Q", "U", "V", "X1", "X2", "Y", "Y1", "Y2")
        assert joint.prob.sum() == pytest.approx(1.0, abs=1e-12)

    def test_degraded_joint(self, binary_degraded):
        joint = _assemble_joint(fx.uniform_degraded_scheme(binary_degraded), binary_degraded)
        assert joint.variables == ("Q", "X1", "X2", "Y", "Y2")
        # uniform input through the first flip: Y is a fair coin
        assert entropy(joint, "Y") == pytest.approx(1.0, abs=1e-12)
        assert mutual_information(joint, "X1", "Y") == pytest.approx(
            1.0 - H_TENTH, abs=1e-12
        )

    def test_alphabet_mismatch_rejected(self, clean_mac, pure_noise_wiretap):
        scheme = fx.uniform_u_equals_x1(clean_mac)
        with pytest.raises(DimensionMismatch):
            _assemble_joint(scheme, pure_noise_wiretap)

    def test_markov_structure_of_one_set_joint(self, rng):
        # X1 depends on Q only through U, so I(X1; Q | U) must vanish
        channel = fx.random_channel((2, 2, 3, 1, 2), rng)
        scheme = SchemeOneSet(
            p_q_x2=rng.dirichlet(np.ones(4)).reshape(2, 2),
            p_u_given_q=rng.dirichlet(np.ones(3), size=2),
            p_x1_given_u=rng.dirichlet(np.ones(2), size=3),
        )
        joint = _assemble_joint(scheme, channel)
        assert mutual_information(joint, "X1", "Q", given="U") <= 1e-12


def _uniform_schemes():
    channel = fx.clean_mac()
    return [fx.uniform_u_equals_x1(channel), fx.uniform_one_set_outer(channel),
            fx.uniform_two_set_scheme(channel), fx.uniform_degraded_scheme(channel)]


class TestNaNMasses:
    """A NaN mass fails every mass check: abs(NaN - 1) > tol is False, so
    each check is written as "not within tol"."""

    def test_joint(self):
        with pytest.raises(RowSumViolation, match="nan"):
            _joint(("A",), np.array([0.5, np.nan]))

    def test_joint_stack(self):
        good, bad = np.full((1, 2), 0.5), np.array([[np.nan, 0.5]])
        with pytest.raises(RowSumViolation, match="nan"):
            JointStack(("A",), np.concatenate([good, bad]))

    @pytest.mark.parametrize("which", range(4))
    def test_every_scheme_field(self, which):
        doc = scheme_to_dict(_uniform_schemes()[which])
        for field in doc:
            if field == "kind":
                continue
            bad = dict(doc)
            table = np.array(doc[field])
            table.reshape(-1)[-1] = np.nan
            bad[field] = table.tolist()
            with pytest.raises(RowSumViolation):
                scheme_from_dict(bad)

    def test_all_nan_joint_block(self):
        # p(q, x2) left all NaN by a 0/0 once every mass was dropped
        with pytest.raises(RowSumViolation):
            SchemeOneSet(p_q_x2=np.full((1, 2), np.nan), p_u_given_q=[[1.0]],
                         p_x1_given_u=[[0.5, 0.5]])
