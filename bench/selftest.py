"""Self-tests of the bench harness (not of bhf itself).

    python3 bench/selftest.py

They run small slices of each workload in this process, so they take
seconds, not the minutes of a benchmark run.
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import bhf  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# The workload on which each entry point is meant to do its work (the layer
# table in NOTE.md); dehn_twist_dd is cached per process, so tensor products
# are exercised here through the bimodules workload.
EXERCISED_ON = {
    "genus1": [
        "strands.mul", "strands.d", "strands.expand", "strands.decompose",
        "strands.idempotent", "strands.basis_keys", "strands.corner_keys",
        "dmodules.tensor_decompose", "dmodules.validate", "dmodules.verify_d2",
        "dmodules.reduce", "pairing.mor_dd_d", "pairing.mor_d_d", "gf2.gf2_rank",
        "gf2.validate", "gf2.homology_rank", "gf2.homology_representatives",
        "catalog.apply_twist_word",
    ],
    "satellite": [
        "pairing.mor_d_ud", "f2u.homology", "f2u.snf", "f2u.validate",
        "knots.simplify_basis", "knots.cfk_to_cfd", "knots.tau",
    ],
    "bimodules": [
        "strands.mul", "strands.basis_keys", "dmodules.tensor_mul", "dmodules.validate",
        "catalog.dd_identity", "catalog.underslide_dd", "serialize.dumps",
        "serialize.parse_document", "serialize.serialize",
    ],
}


def small_slice(workload: str, seed: int = 1) -> list[dict]:
    """A few cheap instances of every kind the slice needs."""
    instances = workloads.make_instances(workload, seed)
    if workload == "genus1":
        return [i for i in instances if i["kind"] == "random"][:4]
    if workload == "satellite":
        stairs = [i for i in instances if i["kind"] == "stair" and len(i["steps"]) == 4]
        return [i for i in instances if i["kind"] == "fixture"] + stairs[:2]
    pair = next(i for i in instances if i["kind"] == "pair")
    slide = next(i for i in instances if i["kind"] == "underslide")
    load = next(i for i in instances if i["kind"] == "load" and i["source"] == pair["build"])
    return [pair, load, slide]


def run_slice(workload, trace, instances=None, entry_points=spans.ENTRY_POINTS):
    if instances is None:
        instances = small_slice(workload)
    return worker.run_pass(bhf, workload, 1, trace, time.monotonic_ns(),
                           instances=instances, entry_points=entry_points)


class InstanceSets(unittest.TestCase):
    def test_pure_function_of_the_seed(self):
        for w in workloads.WORKLOADS:
            a, b = workloads.make_instances(w, 7), workloads.make_instances(w, 7)
            self.assertEqual(workloads.digest(a), workloads.digest(b))
            self.assertNotEqual(workloads.digest(a),
                                workloads.digest(workloads.make_instances(w, 8)))
            self.assertGreaterEqual(len(a), 40, "the p75 tail needs 40 instances")

    def test_genus2_circles_and_underslides(self):
        circles = workloads.genus2_circles()
        self.assertEqual(len(circles), 21)
        for c in circles[:3]:
            ours = workloads.underslides(c)
            theirs = [(s.b1, s.c1) for s in bhf.all_underslides(bhf.make_pmc(2, c))]
            self.assertEqual(sorted(ours), sorted(theirs))

    def test_tail_is_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(40), 75)
        self.assertEqual(run.tail_rank(40), 29)
        self.assertEqual(run.tail_rank(5), 4)


class Passes(unittest.TestCase):
    def test_traced_and_untraced_answers_match(self):
        for w in workloads.WORKLOADS:
            plain, traced = run_slice(w, False), run_slice(w, True)
            self.assertEqual(plain["failures"], [], w)
            self.assertEqual(plain["answers"], traced["answers"], w)

    def test_forced_oracle_disagreement_is_a_failure(self):
        real = workloads.lattice_rank
        workloads.lattice_rank = lambda word: real(word) + 1
        try:
            record = run_slice("genus1", False)
        finally:
            workloads.lattice_rank = real
        self.assertEqual(len(record["failures"]), len(record["answers"]))
        self.assertIn("lattice oracle", record["failures"][0]["reason"])

    def test_raising_request_is_a_failure(self):
        bad = [{"id": "x", "kind": "random", "word": ["Tx"]}]
        record = run_slice("genus1", False, instances=bad)
        self.assertEqual([f["id"] for f in record["failures"]], ["x"])
        self.assertIn("raised", record["failures"][0]["reason"])


class Tracing(unittest.TestCase):
    def test_every_entry_point_is_exercised_on_its_workload(self):
        # pairing.mor_dd_d is reached only through catalog's own name for it,
        # and pairing.mor_d_ud only through knots', so these also check the
        # rebinding of imported names.
        for w, names in EXERCISED_ON.items():
            layers = run_slice(w, True)["layers"]
            for name in names:
                self.assertGreater(layers[f"{name}.calls"], 0, f"{name} on {w}")
                self.assertGreater(layers[f"{name}.self_s"], 0, f"{name} on {w}")

    def test_removed_entry_point_is_reported_missing(self):
        gone = (
            spans.EntryPoint("strands.gone", "bhf.strands", ("SurfaceAlgebra.no_such_method",)),
            spans.EntryPoint("nomodule.fn", "bhf.no_such_module", ("fn",)),
        )
        record = run_slice("genus1", True, entry_points=spans.ENTRY_POINTS + gone)
        self.assertEqual(record["missing"], ["strands.gone", "nomodule.fn"])
        self.assertEqual(record["layers"]["strands.gone.calls"], 0)
        self.assertGreater(record["layers"]["catalog.apply_twist_word.calls"], 0)

    def test_wrappers_are_removed_after_a_traced_pass(self):
        run_slice("genus1", True)
        self.assertFalse(hasattr(bhf.pairing.mor_dd_d, "__wrapped__"))
        self.assertIs(bhf.catalog.mor_dd_d, bhf.pairing.mor_dd_d)
        self.assertIs(sys.modules["bhf.serialize"].serialize, bhf.serialize)

    def test_benchmark_json_lists_every_metric(self):
        doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         spans.metric_specs())
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         list(run.END_TO_END))


if __name__ == "__main__":
    unittest.main()
