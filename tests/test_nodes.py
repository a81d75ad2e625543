import math
from fractions import Fraction

import numpy as np
import pytest

from quadlsq import (
    ConvergenceError,
    Family,
    FamilySpec,
    Interval,
    NodeSet,
    clenshaw_curtis_nodes,
    fejer1_nodes,
    generate,
    legendre_nodes,
    newton_cotes_nodes,
    read_nodes_file,
)

from helpers import FAMILIES, MIN_N, bits, ref_legendre_pair, solved


class TestFamilyParsing:
    @pytest.mark.parametrize("alias,member", [
        ("nc", Family.NEWTON_COTES),
        ("newton-cotes", Family.NEWTON_COTES),
        ("f", Family.FEJER1),
        ("fejer1", Family.FEJER1),
        ("cc", Family.CLENSHAW_CURTIS),
        ("GL", Family.GAUSS_LEGENDRE),
        ("gauss_legendre", Family.GAUSS_LEGENDRE),
        ("custom", Family.CUSTOM),
        ("newton_cotes", Family.NEWTON_COTES),
        ("fejer", Family.FEJER1),
        ("clenshaw_curtis", Family.CLENSHAW_CURTIS),
        ("gauss", Family.GAUSS_LEGENDRE),
    ])
    def test_aliases(self, alias, member):
        for spelling in (alias, alias.upper(), alias.replace("_", "-"),
                         alias.upper().replace("_", "-")):
            assert Family.parse(spelling) is member

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown family"):
            Family.parse("simpson")

    @pytest.mark.parametrize("text", ["", "newton", "fejer2", "clenshaw", "legendre",
                                      "g", "n", "gausslegendre", "family.custom"])
    def test_only_the_eleven_spellings(self, text):
        with pytest.raises(ValueError, match="unknown family"):
            Family.parse(text)

    @pytest.mark.parametrize("member", list(Family))
    def test_a_member_is_itself(self, member):
        assert Family.parse(member) is member


class TestFamilySpec:
    @pytest.mark.parametrize("member,short", [
        (Family.NEWTON_COTES, "nc"), (Family.FEJER1, "f"),
        (Family.CLENSHAW_CURTIS, "cc"), (Family.GAUSS_LEGENDRE, "gl"),
    ])
    def test_member_value_and_short_name_are_one_spec(self, member, short):
        specs = [FamilySpec(member, 5), FamilySpec(member.value, 5), FamilySpec(short, 5)]
        assert specs[0] == specs[1] == specs[2]
        assert all(spec.family is member for spec in specs)
        assert generate(specs[2]).nodes == generate(specs[0]).nodes

    def test_n_is_stored_as_an_int(self):
        spec = FamilySpec(Family.FEJER1, np.int64(4))
        assert spec.n == 4 and type(spec.n) is int

    @pytest.mark.parametrize("family,n,message", [
        (Family.CUSTOM, 3, "custom nodes are not generated: pass them to NodeSet"),
        ("nope", 3, "unknown family: 'nope'"),
        (Family.NEWTON_COTES, 5.0, "the node count must be an integer, got 5.0"),
        (Family.NEWTON_COTES, "5", "the node count must be an integer, got '5'"),
        (Family.NEWTON_COTES, None, "the node count must be an integer, got None"),
    ])
    def test_a_spec_that_cannot_be_generated_is_refused(self, family, n, message):
        with pytest.raises(ValueError, match=message):
            FamilySpec(family, n)


class TestGenerators:
    def test_fejer_three(self):
        nodes = fejer1_nodes(3)
        expected = [-math.sqrt(3.0) / 2.0, 0.0, math.sqrt(3.0) / 2.0]
        np.testing.assert_allclose(nodes, expected, rtol=0, atol=1e-15)

    def test_clenshaw_curtis_four(self):
        np.testing.assert_allclose(
            clenshaw_curtis_nodes(4), [-1.0, -0.5, 0.5, 1.0], rtol=0, atol=1e-15
        )

    def test_clenshaw_curtis_endpoints_exact(self):
        nodes = clenshaw_curtis_nodes(9)
        assert nodes[0] == -1.0 and nodes[-1] == 1.0

    def test_newton_cotes_five(self):
        np.testing.assert_array_equal(
            newton_cotes_nodes(5), [-1.0, -0.5, 0.0, 0.5, 1.0]
        )

    def test_gauss_two(self):
        np.testing.assert_allclose(
            legendre_nodes(2),
            [-0.5773502691896257, 0.5773502691896257],
            rtol=0,
            atol=2e-16,
        )

    def test_gauss_one_is_midpoint(self):
        assert legendre_nodes(1) == [0.0]

    def test_gauss_three(self):
        root = math.sqrt(3.0 / 5.0)
        np.testing.assert_allclose(
            legendre_nodes(3), [-root, 0.0, root], rtol=0, atol=2e-16
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 40, 64])
    def test_gauss_roots_annihilate_legendre(self, n):
        for t in legendre_nodes(n):
            p, dp = ref_legendre_pair(n, t)
            assert abs(p) <= 1e-14 * max(1.0, abs(dp))

    @pytest.mark.parametrize("n", list(range(1, 65)) + [100, 128])
    def test_gauss_roots_correctly_rounded(self, n):
        # P_n, evaluated exactly, changes sign between the two midpoints of
        # each node and its neighbouring doubles: the root is within half an
        # ulp, so the node is the root correctly rounded.  At x = M / 2^k,
        # R_j = j! 2^(kj) P_j(x) is an integer: R_0 = 1, R_1 = M and
        # R_j = (2j-1) M R_{j-1} - (j-1)^2 2^(2k) R_{j-2}, so the sign of
        # P_n(x) is that of R_n.
        def legendre_sign(x):
            m, k = x.numerator, x.denominator.bit_length() - 1
            r0, r1 = 1, m
            for j in range(2, n + 1):
                r0, r1 = r1, (2 * j - 1) * m * r1 - ((j - 1) ** 2 * r0 << 2 * k)
            return (r1 > 0) - (r1 < 0)

        for t in legendre_nodes(n):
            x = Fraction(t)
            below = (x + Fraction(math.nextafter(t, -math.inf))) / 2
            above = (x + Fraction(math.nextafter(t, math.inf))) / 2
            assert legendre_sign(below) * legendre_sign(above) < 0

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [2, 3, 7, 12, 17, 33])
    def test_sorted_in_interval_symmetric(self, family, n):
        nodes = generate(FamilySpec(family, n)).nodes
        assert len(nodes) == n
        assert all(a < b for a, b in zip(nodes, nodes[1:]))
        assert all(-1.0 <= t <= 1.0 for t in nodes)
        # mirror symmetry must be exact, not approximate
        for i in range(n):
            assert nodes[i] == -nodes[n - 1 - i]

    def test_unsupported_counts(self):
        for bad in (newton_cotes_nodes, clenshaw_curtis_nodes):
            with pytest.raises(ValueError, match="unsupported count"):
                bad(1)
        with pytest.raises(ValueError, match="unsupported count"):
            fejer1_nodes(0)
        with pytest.raises(ValueError, match="unsupported count"):
            legendre_nodes(0)

    def test_eigensolver_failure_is_a_convergence_error(self, monkeypatch, capsys):
        # the starting values come from LAPACK; its failure is a typed
        # numerical failure, and the CLI exits 3 on it
        from quadlsq.cli import main

        def no_convergence(a, UPLO="L"):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        with pytest.raises(ConvergenceError, match="no convergence for the zeros of P_6"):
            legendre_nodes(6)
        assert main(["analyze", "--family", "gl", "--n", "6"]) == 3
        assert "numerical failure: no convergence" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2, 17, 64])
    @pytest.mark.parametrize("size,accepted", [(2e-14, False), (0.5e-14, True)])
    def test_acceptance_check_is_on_p_n(self, monkeypatch, n, size, accepted):
        # a double-double step that lands off the root by size / |P'_n|, so
        # that |P_n| there is about size: the check on V_n / kappa_n must
        # refuse it above 1e-14 and accept it below
        import quadlsq.nodes as nodes_mod
        from quadlsq.ddouble import dd_add

        step = nodes_mod._newton_step_dd

        def off_root_step(k, x, coeffs):
            xh, xl = step(k, x, coeffs)
            return dd_add(xh, xl, size / abs(ref_legendre_pair(k, xh)[1]), 0.0)

        monkeypatch.setattr(nodes_mod, "_newton_step_dd", off_root_step)
        if accepted:
            assert len(legendre_nodes(n)) == n
        else:
            with pytest.raises(ConvergenceError, match=f"no convergence for root 1 of P_{n}"):
                legendre_nodes(n)


class TestGenerate:
    @pytest.mark.parametrize("family,generator", [
        (Family.NEWTON_COTES, newton_cotes_nodes),
        (Family.FEJER1, fejer1_nodes),
        (Family.CLENSHAW_CURTIS, clenshaw_curtis_nodes),
        (Family.GAUSS_LEGENDRE, legendre_nodes),
    ])
    def test_reference_interval_keeps_the_generators_bits(self, family, generator):
        # on (-1, 1) the map is t -> 0.0 + 1.0 t, the identity on every
        # node but -0.0, which no generator returns
        for n in range(1, 65):
            if n < MIN_N[family]:
                with pytest.raises(ValueError, match="unsupported count"):
                    generate(FamilySpec(family, n))
                continue
            assert bits(generate(FamilySpec(family, n)).nodes) == bits(generator(n)), n

    def test_custom_is_not_generated(self):
        with pytest.raises(ValueError, match="pass them to NodeSet"):
            generate(FamilySpec(Family.CUSTOM, 3))

    def test_interval_mapping(self):
        ns = generate(FamilySpec(Family.NEWTON_COTES, 3), Interval(0.0, 4.0))
        assert ns.nodes == (0.0, 2.0, 4.0)
        assert ns.interval == Interval(0.0, 4.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_interval_whose_length_overflows(self, family):
        # b - a overflows on (-1e308, 1e308); the halved endpoints do not
        ns = generate(FamilySpec(family, 3), Interval(-1e308, 1e308))
        ref = generate(FamilySpec(family, 3)).nodes
        assert bits(ns.nodes) == bits(1e308 * t for t in ref)

    @pytest.mark.parametrize("a,b", [(0.0, 4.0), (2.0, 4.0), (-3.0, 1000.0), (0.0, 1e-5)])
    def test_mapping_by_halved_endpoints_keeps_its_bits(self, a, b):
        # 0.5 a + 0.5 b and 0.5 b - 0.5 a are (a + b) / 2 and (b - a) / 2
        # whenever no half is subnormal and b - a is finite
        mid, rad = (a + b) / 2.0, (b - a) / 2.0
        for family in FAMILIES:
            ref = generate(FamilySpec(family, 9)).nodes
            ns = generate(FamilySpec(family, 9), Interval(a, b))
            assert bits(ns.nodes) == bits(mid + rad * t for t in ref)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_gauss_rules_link_to_system(self, n):
        # generated GL nodes must give the maximal degree and weight sum 2
        _, fs, sol = solved(Family.GAUSS_LEGENDRE, n)
        assert fs.degree == 2 * n - 1
        assert math.fsum(sol.omega) == pytest.approx(2.0, rel=1e-13)


class TestNodesFile:
    def test_read_decimals_rationals_comments(self, tmp_path):
        path = tmp_path / "nodes.txt"
        path.write_text(
            "# simpson on [-1, 1]\n"
            "-1\n"
            "0.0   # midpoint\n"
            "1/1\n",
            encoding="utf-8",
        )
        assert read_nodes_file(path) == [Fraction(-1), Fraction(0), Fraction(1)]

    def test_exact_decimal_strings(self, tmp_path):
        path = tmp_path / "nodes.txt"
        path.write_text("-0.5\n0.125\n", encoding="utf-8")
        assert read_nodes_file(path) == [Fraction(-1, 2), Fraction(1, 8)]

    def test_unordered_rejected(self, tmp_path):
        path = tmp_path / "nodes.txt"
        path.write_text("1\n0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unordered nodes"):
            read_nodes_file(path)

    def test_message_names_the_file(self, tmp_path):
        path = tmp_path / "nodes.txt"
        path.write_text("1/2\n1/2\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_nodes_file(path)
        assert str(info.value) == f"{path}: unordered nodes: 1/2 !< 1/2"

    def test_value_beyond_double_range_is_a_value_error_in_a_node_set(self, tmp_path):
        # the file holds exact values, so it reads; the double conversion
        # of NodeSet is what rejects it, with a ValueError
        path = tmp_path / "nodes.txt"
        path.write_text("0\n1e400\n", encoding="utf-8")
        values = read_nodes_file(path)
        assert values == [Fraction(0), Fraction(10) ** 400]
        with pytest.raises(ValueError, match=r"node 1\.00000e\+400 is outside the double range"):
            NodeSet(tuple(values))

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "nodes.txt"
        path.write_text("zero\n", encoding="utf-8")
        with pytest.raises(ValueError, match="cannot parse"):
            read_nodes_file(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "nodes.txt"
        path.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no nodes"):
            read_nodes_file(path)
