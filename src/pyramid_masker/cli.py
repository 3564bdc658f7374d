"""Command-line interface.

Subcommands:

* ``mask``           -- corpus JSONL in, one pretraining example per line out.
* ``stats``          -- corpus-level means as a single JSON object.
* ``score-sentence`` -- per-sentence salience scores for one cluster.
* ``eval-pyramid``   -- content-unit scores for annotated summaries.
* ``inspect``        -- readable rendering of one emitted example.

Data goes to stdout, every diagnostic goes to stderr as one JSON object
per line.  Every subcommand reads JSONL through ``ingest.read_records``,
which skips a bad line as a ``record_error`` event (fatal under
``--strict``).  ``main`` ends any subcommand's fault as one ``fatal``
line carrying the traceback, Ctrl-C as a ``fatal`` line with the
reason ``interrupted``, and a bad command line as a ``fatal`` line
naming what was wrong; all exit 1.  ``mask`` refuses, the same way, an
``--output`` that is the file its input is read from, and leaves that
file as it was.  Every flag is declared once: ``--input`` and
``--cluster-id`` in parent parsers, and each setting as one row of
``SETTINGS`` (``mask``'s, which ``score-sentence``, ``stats`` and
``eval-pyramid`` share) or of ``EVAL_SETTINGS``.  An empty
``--abbreviations`` is fatal.  Settings resolve as flags over
config-file values over the config dataclasses' defaults.  The config
file is a flat JSON object whose keys are the ``mask`` flag names, with
hyphens or underscores.  Its values are JSON scalars of the flag's type,
and switches take ``true`` or ``false``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from collections import defaultdict
from contextlib import AbstractContextManager, nullcontext
from dataclasses import asdict
from enum import EnumMeta
from functools import partial
from operator import not_
from typing import IO, Callable, Iterable, NoReturn

from .entities import EntitySource
from .ingest import (
    LONE_SURROGATE, CorpusError, RecordError, compute_corpus_stats, fits_float, is_json_int,
    load_clusters, read_records,
)
from .mask import MaskConfig
from .pipeline import PipelineConfig, run_mask
from .pyr_eval import CoverageAggregation, LengthUnit, mean_score, record_score
from .rouge import ClusterScorer, SalienceVariant
from .segment import NormalizationConfig, Stemming, load_abbreviations, segment_cluster
from .selection import SelectionConfig, Strategy


def _fatal(reason: str, **details: str) -> int:
    print(json.dumps({"event": "fatal", "reason": reason, **details}), file=sys.stderr)
    return 1


def _record_error(error: RecordError) -> None:
    print(json.dumps(error.event()), file=sys.stderr)


def _open_source(path: str) -> AbstractContextManager[IO[bytes]]:
    """``path`` opened for reading, or stdin for ``-``, to enter in a ``with``."""
    return nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb")


def _open_sink(path: str, source: IO[bytes]) -> AbstractContextManager[IO[str]]:
    """``path`` opened for writing, or stdout for ``-``, to enter in a
    ``with``.  Raises ``CorpusError`` when ``path`` is the file that
    ``source`` reads, which opening it would truncate."""
    if path == "-":
        return nullcontext(sys.stdout)
    try:
        same = os.path.samestat(os.fstat(source.fileno()), os.stat(path))
    except (OSError, ValueError):  # no such file yet, or a source with no file
        same = False
    if same:
        raise CorpusError(f"--output {path} is the input file; it was left as it was")
    return open(path, "w", encoding="utf-8", newline="\n")


def _pick(items: Iterable, id_of: Callable, args: argparse.Namespace, noun: str, first: str):
    """The first of ``items`` whose id is ``--cluster-id``, or the first
    of all without one; raises ``CorpusError`` when there is none."""
    for item in items:
        if args.cluster_id in (None, id_of(item)):
            return item
    wanted = args.cluster_id if args.cluster_id is not None else f"<first {first}>"
    raise CorpusError(f"{noun} {wanted!r} not found in {args.input}")


# ---------------------------------------------------------------------------
# settings


class Setting:
    """One setting: its flag, whose dest is its config-file key; the
    keyword it fills of ``config``, a config dataclass or ``record_score``;
    how a given value converts to that keyword, where an Enum's values
    are the flag's choices; and the flag's other argparse options.  A
    setting not given keeps the keyword's default."""

    def __init__(self, flag: str, config: Callable, field: str, convert=None, **options):
        self.flag, self.config, self.field = flag, config, field
        self.convert, self.options = convert, options
        self.key = flag[2:].replace("-", "_")


SETTINGS = (
    Setting("--strategy", SelectionConfig, "strategy", Strategy),
    Setting("--mask-ratio", SelectionConfig, "mask_ratio", type=float),
    Setting("--copy-ratio", SelectionConfig, "copy_ratio", type=float),
    Setting("--salience-variant", SelectionConfig, "variant", SalienceVariant),
    Setting("--seed", SelectionConfig, "seed", type=int),
    Setting("--entities", PipelineConfig, "entity_source", EntitySource),
    Setting("--input-token-limit", MaskConfig, "input_token_limit", type=int),
    Setting("--output-token-limit", MaskConfig, "output_token_limit", type=int),
    Setting("--doc-sep-token", MaskConfig, "doc_sep_token"),
    Setting("--sent-mask-token", MaskConfig, "sent_mask_token"),
    Setting("--no-lead-sep", MaskConfig, "lead_separator", not_, action="store_true",
            help="emit separators only between documents, not before the first"),
    Setting("--no-lowercase", NormalizationConfig, "lowercase", not_, action="store_true"),
    Setting("--no-strip-punctuation", NormalizationConfig, "strip_punctuation", not_,
            action="store_true"),
    Setting("--stemming", NormalizationConfig, "stemming", Stemming),
    Setting("--workers", PipelineConfig, "workers", type=int),
    Setting("--strict", PipelineConfig, "strict", action="store_true"),
    Setting("--emit-text", PipelineConfig, "emit_text", action="store_true",
            help="also write space-joined input_text/target_text fields"),
    Setting("--progress-every", PipelineConfig, "progress_every", type=int),
    Setting("--abbreviations", PipelineConfig, "abbreviations", load_abbreviations,
            help="override the packaged abbreviation list"),
)
# The settings other subcommands share with ``mask``.
SCORE_SETTINGS = tuple(s for s in SETTINGS if s.key in ("salience_variant", "abbreviations"))
STRICT = tuple(s for s in SETTINGS if s.key == "strict")
# ``eval-pyramid``'s own settings.
EVAL_SETTINGS = (
    Setting("--aggregation", record_score, "aggregation", CoverageAggregation),
    Setting("--len-unit", record_score, "len_unit", LengthUnit),
)


def _add_settings(parser: argparse.ArgumentParser, settings: Iterable[Setting]) -> None:
    for s in settings:
        options = dict(s.options, default=None)
        if isinstance(s.convert, EnumMeta):
            options["choices"] = [member.value for member in s.convert]
        parser.add_argument(s.flag, **options)


def _config_value(key: str, value, setting: Setting):
    """A config-file value, checked against its flag and converted as the
    flag converts its text.  Switches take true/false, integer settings
    whole numbers, number settings numbers and the rest strings."""
    as_type = setting.options.get("type")
    if setting.options.get("action") == "store_true":
        kind, ok = "true or false", isinstance(value, bool)
    elif as_type is int:
        kind = "an integer"
        ok = is_json_int(value) or (isinstance(value, float) and value.is_integer())
    elif as_type is float:
        kind, ok = "a number", fits_float(value)
    else:
        kind, ok = "a string", isinstance(value, str)
    if not ok:
        raise CorpusError(f"config key {key!r} must be {kind}, got {json.dumps(value)}")
    return as_type(value) if as_type else value


def _load_config_file(path: str, settings: dict[str, Setting]) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise CorpusError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CorpusError(f"config file {path} must hold a JSON object")
    resolved = {}
    for key, value in raw.items():
        norm = key.lstrip("-").replace("-", "_")
        if norm not in settings:
            raise CorpusError(f"unknown config key {key!r} in {path}")
        if isinstance(value, str) and LONE_SURROGATE.search(value):
            raise CorpusError(f"config key {key!r} holds a lone UTF-16 surrogate")
        resolved[norm] = _config_value(key, value, settings[norm])
    return resolved


def _given_fields(args: argparse.Namespace, settings: Iterable[Setting]) -> dict[Callable, dict]:
    """The values of those ``settings`` that ``args``'s subcommand
    declares and the user gave, flags over config-file values, each
    converted and filed under its ``config``."""
    declared = {s.key: s for s in settings if hasattr(args, s.key)}
    config = getattr(args, "config", None)
    given = _load_config_file(config, declared) if config else {}
    given.update((key, getattr(args, key)) for key in declared if getattr(args, key) is not None)
    fields: dict[Callable, dict] = defaultdict(dict)
    for key, value in given.items():
        s = declared[key]
        fields[s.config][s.field] = s.convert(value) if s.convert else value
    return fields


def _build_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """The config that the settings of ``args``'s subcommand build."""
    try:
        fields = _given_fields(args, SETTINGS)
        normalization = NormalizationConfig(**fields[NormalizationConfig])
        return PipelineConfig(
            selection=SelectionConfig(**fields[SelectionConfig], normalization=normalization),
            mask=MaskConfig(**fields[MaskConfig]),
            **fields[PipelineConfig],
        )
    except ValueError as exc:
        raise CorpusError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_mask(args: argparse.Namespace) -> int:
    config = _build_pipeline_config(args)
    with _open_source(args.input) as source, _open_sink(args.output, source) as sink:
        return run_mask(source, sink, config).exit_code


def cmd_stats(args: argparse.Namespace) -> int:
    with _open_source(args.input) as source:
        stats = compute_corpus_stats(load_clusters(source, None if args.strict else _record_error))
    print(json.dumps(stats.to_json_dict()))
    return 0 if stats.example_count else 2


def cmd_score_sentence(args: argparse.Namespace) -> int:
    config = _build_pipeline_config(args)
    variant = config.selection.variant
    with _open_source(args.input) as source:
        clusters = load_clusters(source, on_error=_record_error)
        target = _pick(clusters, lambda c: c.cluster_id, args, "cluster", "cluster")
    sentences = segment_cluster(target, abbreviations=config.abbreviations)
    scorer = ClusterScorer(sentences, variant, config.selection.normalization)
    rows = []
    for s in sentences:
        # ``cluster`` first: it keeps the principle score of the same
        # n-gram profile, so each sentence's profile is built once.
        cluster_rouge = scorer.cluster(s)
        rows.append(
            {
                "doc": s.doc_index,
                "sent": s.sent_index,
                "text": s.text,
                "principle": scorer.principle(s),
                "cluster_rouge": cluster_rouge,
            }
        )
    print(
        json.dumps(
            {"cluster_id": target.cluster_id, "salience_variant": variant.value, "sentences": rows},
            ensure_ascii=False,
        )
    )
    return 0


def cmd_eval_pyramid(args: argparse.Namespace) -> int:
    parse = partial(record_score, **_given_fields(args, EVAL_SETTINGS)[record_score])
    with _open_source(args.input) as source:
        scored = list(read_records(source, parse, None if args.strict else _record_error))
    results = [{"summary_id": summary_id, **asdict(score)} for summary_id, score in scored]
    mean = mean_score(score for _, score in scored)
    print(json.dumps({"summaries": results, "mean": asdict(mean) if mean else None}))
    return 0 if results else 2


def _check_example(record: dict) -> dict:
    """An emitted example with the shape ``inspect`` renders; raises
    ValueError with a reason."""
    meta = record.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("meta must be an object")
    scores = meta.get("scores", {})
    if not isinstance(scores, dict):
        raise ValueError("meta.scores must be an object")
    if not all(map(fits_float, scores.values())):
        raise ValueError("every score in meta.scores must be a number a float can hold")
    for name in ("input", "target"):
        tokens = record.get(name, [])
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ValueError(f"{name} must be an array of strings")
    return record


def cmd_inspect(args: argparse.Namespace) -> int:
    with _open_source(args.input) as source:
        records = read_records(source, _check_example, on_error=_record_error)
        record = _pick(records, lambda r: r.get("cluster_id"), args, "example", "record")
    meta = record.get("meta", {})
    lines = [
        f"cluster_id        {record.get('cluster_id')}",
        f"strategy          {meta.get('strategy')}",
        f"fallback_used     {meta.get('fallback_used')}",
        f"dropped_masked    {meta.get('dropped_masked')}",
        f"input tokens      {len(record.get('input', []))}",
        f"target tokens     {len(record.get('target', []))}",
        f"global attention  {record.get('global_attention')}",
        "",
        "input:",
        "  " + " ".join(record.get("input", [])),
        "",
        "target:",
        "  " + " ".join(record.get("target", [])),
    ]
    scores = meta.get("scores")
    if scores:
        lines += ["", "scores:", *(f"  {key:>8}  {value:.6f}" for key, value in scores.items())]
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Raises ``CorpusError`` on a bad command line, which ``main`` ends
    as one ``fatal`` line, in place of argparse's usage text and exit 2."""

    def error(self, message: str) -> NoReturn:
        raise CorpusError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pyramid-masker",
        description="Build gap-sentence pretraining examples from multi-document clusters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--input", default="-", help="JSONL input path, or - for stdin")
    picks = argparse.ArgumentParser(add_help=False, parents=[reads])
    picks.add_argument("--cluster-id", help="the cluster_id to pick; defaults to the first")

    mask = sub.add_parser(
        "mask", parents=[reads], help="convert a corpus into masked pretraining examples"
    )
    mask.add_argument("--output", default="-", help="output JSONL path, or - for stdout")
    mask.add_argument("--config", help="flat JSON config file; flags win over it")
    _add_settings(mask, SETTINGS)
    mask.set_defaults(func=cmd_mask)

    for name, parent, settings, func, help_text in (
        ("stats", reads, STRICT, cmd_stats, "corpus-level statistics as JSON"),
        ("score-sentence", picks, SCORE_SETTINGS, cmd_score_sentence,
         "per-sentence salience scores for one cluster"),
        ("eval-pyramid", reads, EVAL_SETTINGS + STRICT, cmd_eval_pyramid,
         "score summaries against weighted content units"),
        ("inspect", picks, (), cmd_inspect, "pretty-print one emitted example"),
    ):
        command = sub.add_parser(name, parents=[parent], help=help_text)
        _add_settings(command, settings)
        command.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CorpusError, OSError) as exc:
        return _fatal(str(exc))
    except KeyboardInterrupt:
        return _fatal("interrupted")
    except Exception as exc:
        return _fatal(
            f"internal error: {type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )


if __name__ == "__main__":
    sys.exit(main())
