"""Mutation guard: every listed mutant of ``src/`` must fail the tests named for it.

    python tests/mutants.py

Copies ``src/`` to a temporary directory and first runs every listed test
against the unmutated copy, which must pass.  Then, for each mutant (file,
old text, new text, test ids), it applies that one edit to the copy, runs
those tests against it, and undoes the edit.  A mutant is killed when the
tests fail.  Prints one line per mutant and exits 1 if any survives.  Uses
only the standard library; pytest runs in a subprocess.

A kernel change adds a mutant here for the exactness it relies on.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/wolstenholme
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repo root


MUTANTS = (
    Mutant("reflected subtraction computes self - other", "modring.py",
           "__rsub__ = _binary(lambda a, b: b - a)",
           "__rsub__ = _binary(lambda a, b: a - b)",
           ("tests/test_modring.py::test_residue_arithmetic_with_ints_and_fractions",
            "tests/test_modring.py::test_embed_is_ring_homomorphism")),
    Mutant("B_0 reads as 2", "bernoulli.py",
           "p if k == 0 else", "2 * p if k == 0 else",
           ("tests/test_bernoulli.py::test_bernoulli_mod_oracle_grid",)),
    Mutant("a window read at its class's top precision misses the window",
           "plan.py", "len(S) >= c", "len(S) > c",
           ("tests/test_plan.py::test_suite_sweeps_once_per_prime",)),
    Mutant("the gated list forgets what the ungated list holds, so shared nodes count twice",
           "checks.py", "for read in row._reads], held)",
           "for read in row._reads], {})",
           ("tests/test_plan.py::test_suite_list_lengths",)),
    Mutant("a suite compiles its ungated rows twice, so gated reads never sweep",
           "checks.py", "for g, row in rows if g is gated for",
           "for g, row in rows if not g for",
           ("tests/test_plan.py::test_few_window_reads_take_direct_passes",)),
    Mutant("the suite's merge keeps the smaller C of a node", "bernoulli.py",
           "max(c - i, need.get((j, e, s + i), 0))", "min(c - i, need.get((j, e, s + i), c - i))",
           ("tests/test_plan.py::test_suite_list_lengths",)),
    Mutant("the suite's lists run parents before their children", "bernoulli.py",
           "(key[0], key[1], -key[2])", "(key[0], key[1], key[2])",
           ("tests/test_plan.py::test_suite_lists_predict_the_reads_made",)),
    Mutant("a failing node is raised from the lists, so every reading row errs",
           "bernoulli.py", "plan.listed = len(lists)", "raise",
           ("tests/test_plan.py::test_a_failing_node_errs_the_reading_rows_only",)),
    Mutant("the table of 2's chain takes one p-th power too many", "plan.py",
           "t.append(pow(t[-1], p, m))", "t.append(pow(t[-1], p * p, m))",
           ("tests/test_plan.py::test_table_of_2_is_the_direct_powers",)),
    Mutant("E(3) with multiplier 13 for 3 + 3^2 = 12", "plan.py",
           "for a in (2, 6, 12))", "for a in (2, 6, 13))",
           ("tests/test_plan.py::test_pair_products_match_shifted_products",
            "tests/test_binomial.py::test_binomials_off_products_against_exact_oracle")),
    Mutant("the derived Bernoulli cap reads one exponent too far", "checks.py",
           "[a + RESIDUE_EXPONENT_CAP for", "[a + RESIDUE_EXPONENT_CAP + 1 for",
           ("tests/test_checks.py::test_bernoulli_rows_evaluate_at_their_w",)),
    Mutant("Zhao's law with n + r for n - r: 3 * 1 * (3 + 1) = 12 for 6", "checks.py",
           "((6, 1, R[1]),)", "((12, 1, R[1]),)",
           ("tests/test_golden.py::test_jsonl_matches_golden_digest"
            "[verify --checks sun_wan_p5,zhao_eq4_p5]",)),
    Mutant("the base sieve stops short of isqrt(hi - 1)", "scan.py",
           "range(2, root + 1)", "range(2, root)",
           ("tests/test_scan.py::test_scan_skips_tiny_primes",)),
    Mutant("the half walk's geometric sum of r^3 with its sign flipped",
           "harmonic.py", "t1 = (-2 * a *", "t1 = (2 * a *",
           ("tests/test_plan.py::test_t1_gate_is_the_defining_congruence",)),
    Mutant("the half walk's fused summand drops the 2 of 2KR", "harmonic.py",
           "(3 + 2 * K * R)", "(3 + K * R)",
           ("tests/test_harmonic.py::test_half_walk_matches_per_k_oracles",)),
    Mutant("the power kernel's half loop stops at (p-3)/2", "harmonic.py",
           "min(lo + _CHUNK, mid + 1))", "min(lo + _CHUNK, mid))",
           ("tests/test_harmonic.py::test_power_sum_kernel_matches_powmod_loop",)),
    Mutant("the moment window drops the class t = -6, so the half sweep drops t - 1 = -7",
           "harmonic.py",
           "MOMENT_WINDOW = {4: 5, 2: 3, -2: 5, -4: 5, -6: 3}",
           "MOMENT_WINDOW = {4: 5, 2: 3, -2: 5, -4: 5}",
           ("tests/test_harmonic.py::test_registry_power_sums_fill_the_window",)),
    Mutant("the half sweep keys its classes below 0 one exponent high", "harmonic.py",
           "t + p - 2", "t + p - 1",
           ("tests/test_harmonic.py::test_moment_path_matches_powmod_loop",)),
    Mutant("the half identity's terms carry 2^j for 2^-j", "bernoulli.py",
           "t * i4 % M", "t * 4 % M",
           ("tests/test_bernoulli.py::test_half_identity_against_exact_rationals",)),
    Mutant("the lift assumes v_p(2^n - 1) <= 1", "bernoulli.py",
           "d = capped_valuation(h - 2, p, C)", "d = min(1, capped_valuation(h - 2, p, C))",
           ("tests/test_bernoulli.py::test_bernoulli_mod_r4_grid",)),
    Mutant("the lift reads S_(n-1) at the unlifted precision", "bernoulli.py",
           "half_sum(n - 1, C - 1)", "half_sum(n - 1, c - 1)",
           ("tests/test_bernoulli.py::test_bernoulli_mod_r4_grid",)),
    Mutant("the moment sweep's slot width leaves u^i out of its bound, so slots carry",
           "harmonic.py", "(2 * top + 4) * p.bit_length()", "(top + 5) * p.bit_length()",
           ("tests/test_harmonic.py::test_packed_sweep_at_wide_primes",)),
    Mutant("checks are evaluated one exponent above their statement, not two",
           "modring.py", "min(stated + 2, cap)", "min(stated + 1, cap)",
           ("tests/test_checks.py::test_all_primes_sum_checks_against_exact_rationals",)),
    Mutant("eq19's sum stops one term short", "checks.py",
           "for i in range(1, 6)))", "for i in range(1, 5)))",
           ("tests/test_acceptance.py::test_criterion_3_harmonic_lemma_families",)),
    Mutant("the plan sweeps T_1..T_4 mod p^8, one digit short of R_1 mod p^10",
           "plan.py", "_pair_power_sums_raw(p, 4, p ** 9)", "_pair_power_sums_raw(p, 4, p ** 8)",
           ("tests/test_plan.py::test_registry_outcomes_as_off_the_wide_sweep",)),
    Mutant("T_5's closed form loses its (p - 1) | 10 case", "plan.py",
           "(p + 1) // 2 if 10 % (p - 1) == 0 else 0", "0",
           ("tests/test_plan.py::test_t5_closed_form_is_the_swept_t5",)),
    Mutant("the row's exact division by p is dropped", "checks.py",
           "if pb % p:", "if False:",
           ("tests/test_checks.py::test_row_refuses_a_p_times_bernoulli_not_divisible_by_p",)),
    Mutant("the plan's table of 2 starts one p-th power high", "plan.py",
           "pow((m + 1) // 2, p - 1, m)", "pow((m + 1) // 2, (p - 1) * p, m)",
           ("tests/test_checks.py::test_node_lists_read_what_the_recursion_reads",)),
    Mutant("a row drops the inverse of its common denominator", "checks.py",
           "inverse = pow(D, -1, m)", "inverse = 1",
           ("tests/test_checks.py::test_compiled_rows_against_fraction_terms",)),
    Mutant("the lift is skipped, as if d were 0", "bernoulli.py",
           "while C < c + d:", "while C < c:",
           ("tests/test_checks.py::test_a_lifted_node_lifts_in_the_list",)),
    Mutant("a lifted node skips its chain-first step", "bernoulli.py",
           "if C > 3 and n > 2 and", "if C == c > 3 and n > 2 and",
           ("tests/test_bernoulli.py::test_bernoulli_mod_r4_grid",)),
    Mutant("the writer quotes strings without escaping", "cli.py",
           "_quote = json.encoder.encode_basestring_ascii", "_quote = '\"{}\"'.format",
           ("tests/test_cli.py::test_jsonl_line_is_the_encoders_line",)),
    Mutant("PrimePowerModulus hashes on p alone", "modring.py",
           '        return f"PrimePowerModulus({self.p}^{self.k})"\n',
           '        return f"PrimePowerModulus({self.p}^{self.k})"\n\n'
           "    def __hash__(self):\n        return hash(self.p)\n",
           ("tests/test_records.py::test_modulus_equal_by_value",)),
)


def _pytest(src: Path, tests) -> int:
    """pytest's exit code for ``tests`` run against the package under ``src``."""
    # No bytecode cache: an edit that keeps the file's size and mtime second
    # would otherwise run the stale compiled module.
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main(mutants=MUTANTS, src: Path = ROOT / "src") -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        every = sorted({t for m in mutants for t in m.tests})
        if _pytest(copy, every) != 0:
            print("the unmutated copy fails the listed tests")
            return 1
        survivors = 0
        for m in mutants:
            path = copy / "wolstenholme" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE     {m.name}: {m.old!r} is not in {m.file} exactly once")
                survivors += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            try:
                code = _pytest(copy, m.tests)
            finally:
                path.write_text(text)
            if code == 1:
                print(f"killed    {m.name}")
            else:
                print(f"SURVIVED  {m.name} (pytest exit {code})")
                survivors += 1
        print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
