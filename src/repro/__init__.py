"""repro — reproduction of *Using the Structure of Web Sites for
Automatic Segmentation of Tables* (Lerman, Getoor, Minton & Knoblock,
SIGMOD 2004).

The library implements the paper's full pipeline — page-template
induction, extract extraction, detail-page observation building, and
two record segmenters (a WSAT(OIP)-style CSP solver and a factored
probabilistic model learned with EM) — plus the substrates the
evaluation needs: a deterministic hidden-web site simulator standing
in for the paper's 12 live 2003-era sites, a crawler that picks
detail pages by template clustering, three layout-based baselines, and the
scoring/reporting machinery that regenerates every table in the
paper.

Quickstart::

    from repro import SegmentationPipeline, build_site

    site = build_site("superpages")
    pipeline = SegmentationPipeline("prob")
    run = pipeline.segment_generated_site(site)
    for record in run.pages[0].segmentation.records:
        print(record)

See README.md for the architecture overview, DESIGN.md for the
system inventory, and EXPERIMENTS.md for paper-vs-measured results.
"""

from repro.core.config import METHODS, PipelineConfig
from repro.core.evaluation import PageScore, score_page
from repro.core.exceptions import ReproError
from repro.core.pipeline import PageRun, SegmentationPipeline, SiteRun
from repro.core.results import SegmentedRecord, Segmentation
from repro.core.hybrid import HybridConfig, HybridSegmenter
from repro.csp.segmenter import CspConfig, CspSegmenter
from repro.extraction.extracts import Extract, extract_strings
from repro.extraction.observations import Observation, ObservationTable
from repro.obs import ManualClock, MetricsRegistry, Observability, Tracer
from repro.prob.model import ProbConfig
from repro.prob.segmenter import ProbabilisticSegmenter
from repro.reporting.experiment import run_corpus, run_site
from repro.reporting.tables import render_table4
from repro.sitegen.corpus import build_corpus, build_site
from repro.template.finder import TemplateFinder, TemplateFinderConfig
from repro.webdoc.page import Page

__version__ = "0.1.0"

__all__ = [
    "CspConfig",
    "CspSegmenter",
    "Extract",
    "HybridConfig",
    "HybridSegmenter",
    "METHODS",
    "ManualClock",
    "MetricsRegistry",
    "Observability",
    "Observation",
    "ObservationTable",
    "Page",
    "PageRun",
    "PageScore",
    "PipelineConfig",
    "ProbConfig",
    "ProbabilisticSegmenter",
    "ReproError",
    "SegmentationPipeline",
    "SegmentedRecord",
    "Segmentation",
    "SiteRun",
    "TemplateFinder",
    "TemplateFinderConfig",
    "Tracer",
    "__version__",
    "build_corpus",
    "build_site",
    "extract_strings",
    "render_table4",
    "run_corpus",
    "run_site",
    "score_page",
]
