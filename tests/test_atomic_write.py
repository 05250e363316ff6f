"""Every manifest writer commits through one torn-write-safe helper.

A failed rename must leave the previous file byte-identical and no
``.tmp-`` sibling behind, for the helper itself and for each writer
routed through it.
"""

from __future__ import annotations

import os

import pytest

from repro.crawl.fetcher import DirectorySite
from repro.ingest import (
    CRAWL_SNAPSHOT_NAME,
    INGEST_MANIFEST_NAME,
    fetch_crawl,
    ingest_pages,
    load_previous_manifest,
    reingest_pages,
    write_bundles,
    write_reingest,
    write_snapshot,
)
from repro.runner.cache import StageCache
from repro.sitegen.mixed import (
    CRAWL_MANIFEST_NAME,
    MixedCorpusSpec,
    build_mixed_corpus,
    write_crawl,
)
from repro.webdoc.page import Page
from repro.webdoc.store import MANIFEST_NAME, save_sample, write_atomic

PREVIOUS = b"previous manifest\n"


@pytest.fixture(scope="module")
def corpus():
    return build_mixed_corpus(MixedCorpusSpec(sites=2, seed=3))


def _bundles(corpus, directory):
    write_bundles(ingest_pages(corpus.pages), directory)
    return directory / INGEST_MANIFEST_NAME


def _reingest(corpus, directory):
    write_bundles(ingest_pages(corpus.pages), directory)
    previous = load_previous_manifest(directory)
    write_reingest(reingest_pages(corpus.pages, previous), directory)
    return directory / INGEST_MANIFEST_NAME


def _snapshot(corpus, directory):
    crawl_dir = directory / "crawl"
    write_crawl(corpus, crawl_dir)
    seed = corpus.sites[0].list_urls[0]
    write_snapshot(fetch_crawl(DirectorySite(crawl_dir), [seed]), directory)
    return directory / CRAWL_SNAPSHOT_NAME


def _sample(corpus, directory):
    pages = [Page("l.html", "<a href='d.html'>d</a>")]
    save_sample(directory, "s", pages, [[Page("d.html", "x")]])
    return directory / MANIFEST_NAME


def _crawl(corpus, directory):
    write_crawl(corpus, directory)
    return directory / CRAWL_MANIFEST_NAME


def _stage_cache(corpus, directory):
    cache = StageCache(directory)
    cache.store("stage", "ab12", {"value": 1})
    return cache._path("stage", "ab12")


WRITERS = {
    "write_bundles": _bundles,
    "write_reingest": _reingest,
    "write_snapshot": _snapshot,
    "save_sample": _sample,
    "write_crawl": _crawl,
    "StageCache.store": _stage_cache,
}


def _failing_replace(src, dst):
    raise OSError("rename refused")


def _tmp_files(directory):
    return [path for path in directory.rglob(".tmp-*")]


def test_helper_replaces_contents(tmp_path):
    target = tmp_path / "m.json"
    target.write_bytes(PREVIOUS)
    write_atomic(target, b"new\n")
    assert target.read_bytes() == b"new\n"
    assert _tmp_files(tmp_path) == []


def test_helper_failure_keeps_previous(tmp_path, monkeypatch):
    target = tmp_path / "m.json"
    target.write_bytes(PREVIOUS)
    monkeypatch.setattr(os, "replace", _failing_replace)
    with pytest.raises(OSError, match="rename refused"):
        write_atomic(target, b"new\n")
    assert target.read_bytes() == PREVIOUS
    assert _tmp_files(tmp_path) == []


@pytest.mark.parametrize("writer", list(WRITERS))
def test_writer_failure_keeps_previous_manifest(corpus, tmp_path, monkeypatch, writer):
    # A first, healthy run tells us where the writer commits; the
    # second run may write everything else but that one file.
    target = WRITERS[writer](corpus, tmp_path)
    target.write_bytes(PREVIOUS)
    real_replace = os.replace

    def refuse_target(src, dst):
        if os.fspath(dst) == os.fspath(target):
            _failing_replace(src, dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse_target)
    with pytest.raises(OSError, match="rename refused"):
        WRITERS[writer](corpus, tmp_path)
    assert target.read_bytes() == PREVIOUS
    assert _tmp_files(tmp_path) == []
