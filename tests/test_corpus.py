"""The CLI's behaviour corpus (``corpus.py``) against its committed digests."""

import time

import corpus


def test_corpus_digests(tmp_path):
    want = corpus.committed()
    t0 = time.perf_counter()
    got = corpus.compute(tmp_path)
    seconds = time.perf_counter() - t0
    assert list(got) == list(want), "the invocation list changed; rewrite corpus.txt"
    changed = [argv for argv in want if got[argv] != want[argv]]
    assert not changed, f"{len(changed)} invocations changed their output: {changed}"
    assert seconds < 2.0
