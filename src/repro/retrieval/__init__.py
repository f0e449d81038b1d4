"""Retrieval strategies: ERA, TA/ITA, Merge, and the TReX engine."""

from .engine import METHODS, TrexEngine
from .era import era_raw, era_retrieve, era_scored_entries
from .heap import TopKHeap
from .iterators import (
    DUMMY_ELEMENT,
    ElementSpan,
    ErplIterator,
    ExtentIterator,
    PostingIterator,
    RplIterator,
)
from .merge import merge_retrieve
from .race import RaceOutcome, race
from .result import EvaluationStats, ResultSet
from .snippets import Snippet, make_snippet
from .ta import DEFAULT_BATCH_SIZE, ta_retrieve
from .ta_ra import ta_ra_retrieve
from .wand import WandSession, WandTermIterator, wand_retrieve

__all__ = [
    "METHODS",
    "TrexEngine",
    "era_raw",
    "era_retrieve",
    "era_scored_entries",
    "TopKHeap",
    "DUMMY_ELEMENT",
    "ElementSpan",
    "ErplIterator",
    "ExtentIterator",
    "PostingIterator",
    "RplIterator",
    "merge_retrieve",
    "RaceOutcome",
    "race",
    "EvaluationStats",
    "ResultSet",
    "Snippet",
    "make_snippet",
    "DEFAULT_BATCH_SIZE",
    "ta_retrieve",
    "ta_ra_retrieve",
    "WandSession",
    "WandTermIterator",
    "wand_retrieve",
]
