"""Pinned explorer outputs: any change to decode, ranking, selection or the
epsilon trace that moves one archive entry or one trace value fails here."""

import csv
import hashlib
import io
import json
from random import Random

from isoexplore.cli import main
from isoexplore.dse import compare_approaches
from isoexplore.generator import generate_spec
from isoexplore.mapping import ExplorationMode, decode, from_bindings, random_genotype
from isoexplore.model import emit_spec, parse_spec

from conftest import tight_spec_text

EXPLORE_ARCHIVE_SHA1 = "8db3bdc82625b6e064fe61ad33671a9ae5febe97"
EXPLORE_TRACE_SHA1 = "ee8084cf887aa0cfdffc8614879d2ee86be51df5"
COMPARE_FRONTS_SHA1 = "d8809dcfcecb17b4a7c9f6eccff40efea52db4ea"
COMPARE_EPSILON = {
    "IsolationAware": ["0.26302116998159397"],
    "FixedCS": ["0.9250586553528918"],
    "FixedCR": ["0.7666666666666667"],
    "FixedTR": ["0.9125"],
}
TO_DOC_SHA1 = "af9b5ec4441fd128e5b17c327f5a8b396eb1122a"


def sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def test_cli_explore_outputs_are_pinned(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    assert main(["generate", "--profile", "consumer", "--mesh", "4x4",
                 "--seed", "1", "--out", str(spec_file)]) == 0
    out = tmp_path / "run"
    assert main(["explore", "--spec", str(spec_file), "--seed", "42",
                 "--format", "json", "--out-dir", str(out)]) == 0
    rows = list(csv.reader(io.StringIO((out / "trace.csv").read_text())))
    assert rows[0][1] == "elapsed_s"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(r[:1] + r[2:] for r in rows)
    assert sha1((out / "archive.json").read_bytes()) == EXPLORE_ARCHIVE_SHA1
    assert sha1(buf.getvalue().encode()) == EXPLORE_TRACE_SHA1


def test_compare_fronts_and_epsilons_are_pinned():
    res = compare_approaches(
        generate_spec("networking", (4, 4), 1), seed=7, repetitions=1,
        iterations=40, population=30, offspring=15,
    )
    fronts = json.dumps(
        {"fronts": {f"{m}/{r}": v for (m, r), v in res.fronts.items()},
         "references": res.references},
        sort_keys=True,
    )
    assert sha1(fronts.encode()) == COMPARE_FRONTS_SHA1
    assert {m: [repr(e) for e in v] for m, v in res.epsilon.items()} == COMPARE_EPSILON


def mapping_corpus():
    """Mappings in every mode, feasible or not: random genotypes on
    automotive 2x2 (TX and RX overloads), consumer 4x4 (feasible) and the
    tight spec (failed weight searches, core overloads), some also bound
    explicitly in reverse task order; then round-robin bindings, in reverse
    task order, that overload two or three cores of automotive 2x2 cut to
    core capacity 4."""
    auto = emit_spec(generate_spec("automotive", (2, 2), 2))
    modes = list(ExplorationMode)
    for text in (auto, emit_spec(generate_spec("consumer", (4, 4), 1)), tight_spec_text()):
        spec = parse_spec(text)
        rng = Random(3)
        for i in range(68):
            res = decode(spec, random_genotype(spec, rng), modes[i % len(modes)])
            yield res
            if i % 8 == 0:
                yield from_bindings(spec, dict(reversed(res.bindings.items())),
                                    res.reserved_cores, res.reserved_tiles)
    doc = json.loads(auto)
    for tile_type in doc["architecture"]["tile_types"]:
        tile_type["core_policy"]["capacity"] = 4
    spec = parse_spec(json.dumps(doc))
    tasks = [t.id for t in spec.application.tasks][::-1]
    cores = [c.id for c in spec.architecture.cores]
    for hosts in (cores[:2], cores[:3], cores[::-5], cores[1::7]):
        yield from_bindings(spec, {t: hosts[k % len(hosts)] for k, t in enumerate(tasks)})


def test_to_doc_corpus_is_pinned():
    # json.dumps without sort_keys pins the order of every document map too.
    digest = hashlib.sha1()
    for res in mapping_corpus():
        digest.update(json.dumps(res.to_doc()).encode() + b"\n")
    assert digest.hexdigest() == TO_DOC_SHA1


def test_feasible_is_the_absence_of_a_reason():
    seen = set()
    for res in mapping_corpus():
        assert res.feasible == (res.reason is None)
        doc = res.to_doc()
        assert doc["feasible"] == res.feasible and ("reason" in doc) != res.feasible
        seen.add(res.feasible)
    assert seen == {True, False}
