"""Every job of the contract corpus reproduces its pinned hashes.

`contract_corpus` runs each job of `golden/corpus.json` in-process and
compares the exit code and the sha256 of stdout and stderr with the record.
The self-test changes one byte of one emitted field and shows that the
check sees it.
"""

import contract_corpus
from artifact import bggcli


def test_every_corpus_job_matches_its_record():
    corpus = contract_corpus.load()
    assert len(corpus) == len(contract_corpus.jobs())
    assert contract_corpus.moved(corpus, contract_corpus.outputs()) == []


def test_corpus_jobs_are_the_listed_ones():
    assert list(contract_corpus.load()) == [" ".join(a) for a in contract_corpus.jobs()]


def test_corpus_covers_every_exit_status():
    assert {rec["exit"] for rec in contract_corpus.load().values()} == {0, 1, 2}


def test_a_one_byte_change_to_an_emitted_field_is_seen(monkeypatch):
    """One verify entry of the JSON report reads "pasS" in place of "pass":
    the check names the job and its stdout, and nothing else moves."""
    corpus = contract_corpus.load()
    job = "--algebra A2 --cross 1 --weight 1,1 cohomology --emit json,text,dot"
    emit_json = bggcli.emit_json
    monkeypatch.setattr(bggcli, "emit_json",
                        lambda diagram: emit_json(diagram).replace('"pass"', '"pasS"', 1))
    runs = {job: contract_corpus.execute(job.split(" "))}
    assert contract_corpus.moved({job: corpus[job]}, runs) == [f"{job}: stdout moved"]
