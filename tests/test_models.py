from fractions import Fraction

import pytest

from psinv.core import Alphabet, JumpRateMatrix
from psinv.criteria import check_product_line, cycle_balance, product_context, z_table
from psinv.models import (almost_geometric, build, catalog, contact, hidden_marginal,
                          hmc_example, project_jrm, pushtasep_blocks,
                          stochastic_ising, tasep, tasep3, voter, zero_range)
from psinv.linalg import stationary_distribution

F = Fraction


class TestBuilders:
    def test_catalog_names_build(self):
        defaults = {
            "contact": {"lam": 1}, "stochastic_ising": {"x": F(1, 2)},
            "tasep3": {"r10": 1, "r20": 2, "r21": 1},
            "tasep3_cyclic": {"r02": 1, "r10": 1, "r21": 1},
            "tasep3_exchange": {"rates": {(1, 0): 1}},
            "zero_range": {"g": lambda a, k: 1, "kappa_trunc": 4},
            "pushtasep_blocks": {"kappa_trunc": 4},
            "kappa2_general": {"rates": {1: {2: 1}}},
            "flip_2d": {"a": 4}, "pair_flip_2d": {"a": 1, "b": 1},
            "rotation_2d": {"a": 1, "b": 1, "c": 1, "d": 1},
            "three_colour_flip_2d": {"a0": 1, "a1": 1, "a2": 1},
            "ball_move_2d": {"kappa_trunc": 3},
            "ball_cycle_2d": {"kappa_trunc": 3},
            "urn_shift_2d": {"kappa_trunc": 3},
        }
        for name in catalog():
            spec = build(name, **defaults.get(name, {}))
            assert spec.jrm is not None or spec.square is not None

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            build("no-such-model")

    def test_ising_rates_and_kernel(self):
        spec = stochastic_ising(F(1, 2))
        assert spec.jrm.rate((0, 1, 0), (0, 0, 0)) == 4
        assert spec.jrm.rate((0, 0, 0), (0, 1, 0)) == F(1, 4)
        assert spec.jrm.rate((0, 0, 1), (0, 1, 1)) == 1
        assert spec.kernel.prob((0,), 1) == F(1, 5)
        assert spec.kernel.prob((1,), 1) == F(4, 5)

    def test_contact_encodings_give_same_cycle_generator(self):
        from psinv.oracle import CycleSpace, build_generator
        l2 = contact(F(3, 2), encoding="L2").jrm
        l3 = contact(F(3, 2), encoding="L3").jrm
        for n in (3, 4):
            g2 = build_generator(l2, CycleSpace(n))
            g3 = build_generator(l3, CycleSpace(n))
            assert g2.rows == g3.rows

    def test_voter_rates(self):
        spec = voter()
        assert spec.jrm.rate((0, 1, 0), (0, 0, 0)) == 2
        assert spec.jrm.rate((0, 1, 1), (0, 0, 1)) == 1
        assert spec.jrm.rate((0, 0, 1), (0, 1, 1)) == 1

    def test_mass_preservation(self):
        assert zero_range(lambda a, k: 1, 4).jrm.is_mass_preserving()
        assert pushtasep_blocks(4).jrm.is_mass_preserving()
        assert tasep().jrm.is_mass_preserving()
        assert not contact(1).jrm.is_mass_preserving()


class TestProjection:
    def test_hmc_projected_rates(self):
        spec = hmc_example()
        projected = project_jrm(spec.jrm, (0, 1, 1))
        assert projected.rate((0, 0, 0), (0, 1, 0)) == 270
        assert projected.rate((0, 1, 0), (0, 0, 0)) == 294
        assert projected.rate((0, 1, 0), (0, 1, 0)) == 0  # self-jump removed

    def test_identity_projection(self):
        T = tasep().jrm
        assert list(project_jrm(T, (0, 1)).entries()) == list(T.entries())

    def test_inconsistent_projection_witnessed(self):
        spec = hmc_example()
        rates = {key: rate for key, rate in
                 (((src, dst), r) for src, dst, r in spec.jrm.entries())}
        rates[((0, 1, 0), (0, 0, 0))] = 293  # breaks representative independence
        broken = JumpRateMatrix(Alphabet(3), 3, rates)
        with pytest.raises(ValueError, match="inconsistent"):
            project_jrm(broken, (0, 1, 1))

    def test_hmc_projected_law_is_not_markov(self):
        spec = hmc_example()
        law = stationary_distribution(spec.kernel)
        pi = (0, 1, 1)
        ratio_3 = hidden_marginal(law, pi, (1, 1, 1)) / hidden_marginal(law, pi, (1, 1))
        ratio_2 = hidden_marginal(law, pi, (1, 1)) / hidden_marginal(law, pi, (1,))
        assert ratio_3 == F(71, 106)
        assert ratio_2 == F(53, 81)
        assert ratio_3 != ratio_2


class TestAlmostGeometric:
    def test_geometric_on_interval(self):
        q = F(1, 3)
        rho = almost_geometric(range(4), {s: q ** s for s in range(7)})
        total = sum(q ** u for u in range(4))
        assert rho == [q ** u / total for u in range(4)]

    def test_gapped_support(self):
        g = {0: F(1), 2: F(1, 5), 4: F(1, 25)}
        rho = almost_geometric([0, 2], g)
        assert rho[1] == 0
        assert rho[0] * rho[2] == rho[0] ** 2 * F(1, 5)

    def test_inconsistent_rejected(self):
        g = {0: F(1), 1: F(1, 2), 2: F(1, 3)}  # 1/2^2 != 1 * 1/3
        with pytest.raises(ValueError, match="not consistent"):
            almost_geometric([0, 1], g)

    def test_missing_sum_rejected(self):
        with pytest.raises(ValueError, match="misses"):
            almost_geometric([0, 1], {0: F(1), 1: F(1, 2)})


class TestAlmostGeometricInvariance:
    def test_gapped_support_family_via_restriction(self):
        # zero-range moving two units at a time keeps the letters {0, 2}
        # closed; on a two-point support every marginal is almost-geometric,
        # and once one is invariant, all of them are
        from psinv.criteria import restrict_support, check_markov_line
        T = zero_range(lambda a, k: 1 if k == 2 else 0, 4).jrm
        for rho2 in (F(1, 3), F(1, 2), F(4, 5)):
            rho = [1 - rho2, F(0), rho2, F(0)]
            restricted = restrict_support(T, rho, [0, 2])
            ctx = markov_context_for(restricted)
            assert check_markov_line(ctx).invariant

    def test_exchange_variant_builds(self):
        from psinv.models import tasep3_exchange
        spec = tasep3_exchange({(1, 0): 1, (2, 0): 2, (2, 1): 1})
        assert spec.jrm.rate((2, 0), (0, 2)) == 2
        assert spec.jrm.is_mass_preserving()  # swaps conserve the letter sum

    def test_zero_rates_leave_no_entry(self):
        from psinv.models import kappa2_general, tasep3_cyclic, tasep3_exchange, \
            three_colour_flip_2d
        one = {((1, 0), (0, 1)): 1}
        assert tasep3(1, 0, "0").jrm == JumpRateMatrix(Alphabet(3), 2, one)
        assert tasep3_cyclic(0, 1, 0.0).jrm == JumpRateMatrix(Alphabet(3), 2, one)
        assert tasep3_exchange({(1, 0): 1, (2, 0): F(0)}).jrm == \
            JumpRateMatrix(Alphabet(3), 2, one)
        assert dict(((u, v), r) for u, v, r in kappa2_general(
            {2: {1: 1, 0: 0}, 3: {3: 0}}).jrm.entries()) == one
        square = three_colour_flip_2d(0, 2, 0).square
        assert list(square.entries()) == [((1,) * 4, (2,) * 4, 2)]


def markov_context_for(restricted):
    from psinv.criteria import CriterionContext
    return CriterionContext(restricted.T, restricted.kernel_or_law)


class TestTruncatedMassTransport:
    def test_zero_range_constant_rate_geometric_invariant(self):
        T = zero_range(lambda a, k: 1, 4).jrm
        for q in (F(1, 4), F(1, 2), F(2, 3)):
            total = sum(q ** u for u in range(4))
            rho = [q ** u / total for u in range(4)]
            assert check_product_line(T, rho).invariant

    def test_zero_range_family_all_or_none(self):
        # rates depending on the pile size break every geometric at once
        T = zero_range(lambda a, k: a, 4).jrm
        for q in (F(1, 4), F(1, 2)):
            total = sum(q ** u for u in range(4))
            rho = [q ** u / total for u in range(4)]
            assert not check_product_line(T, rho).invariant

    def test_pushtasep_interior_potential(self):
        # the untruncated balance table telescopes: on interior index pairs
        # the truncated table matches the potential, and interior triples
        # kill the cyclic sums
        kappa = 5
        T = pushtasep_blocks(kappa).jrm
        q = F(1, 3)
        total = sum(q ** u for u in range(kappa))
        rho = [q ** u / total for u in range(kappa)]
        ctx = product_context(T, rho)
        table = z_table(ctx)

        def w(x):
            return (1 if x >= 1 else 0) - x

        interior = 0
        for (a, b), value in table.values.items():
            if a + b <= kappa - 1:
                interior += 1
                assert value == w(b) - w(a)
        assert interior > 0
        for x in Alphabet(kappa).words(3):
            if max(x[i] + x[(i + 1) % 3] for i in range(3)) <= kappa - 1:
                assert cycle_balance(ctx, x) == 0
        # full-support invariance fails only through truncation-edge words
        report = check_product_line(T, rho)
        assert not report.invariant
        word, _ = report.witness
        assert any(word[i] + word[(i + 1) % len(word)] > kappa - 1
                   for i in range(len(word)))
