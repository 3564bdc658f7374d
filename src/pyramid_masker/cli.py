"""Command-line interface.

Subcommands:

* ``mask``           -- corpus JSONL in, one pretraining example per line out.
* ``stats``          -- corpus-level means as a single JSON object.
* ``score-sentence`` -- per-sentence salience scores for one cluster.
* ``eval-pyramid``   -- content-unit scores for annotated summaries.
* ``inspect``        -- readable rendering of one emitted example.

Data goes to stdout, every diagnostic goes to stderr as one JSON object
per line.  For ``mask``, settings resolve as flags over config-file
values over defaults.  The config file is a flat JSON object whose keys
are the ``mask`` flag names, with hyphens or underscores.  Its values
are JSON scalars of the flag's type, and switches take ``true`` or
``false``.  ``PYRAMID_MASKER_WORKERS`` overrides the worker count from
either source.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from contextlib import ExitStack
from operator import not_
from typing import IO

from .entities import EntitySource
from .ingest import CorpusError, RecordError, compute_corpus_stats, load_clusters
from .mask import MaskConfig
from .pipeline import PipelineConfig, run_mask
from .pyr_eval import CoverageAggregation, LengthUnit, mean_score, record_score
from .rouge import DEFAULT_VARIANT, ClusterScorer, SalienceVariant
from .segment import NormalizationConfig, Stemming, by_position, load_abbreviations, segment_cluster
from .selection import SelectionConfig, Strategy


def _fatal(reason: str, **details: str) -> int:
    print(json.dumps({"event": "fatal", "reason": reason, **details}), file=sys.stderr)
    return 1


def _record_error(error: RecordError) -> None:
    print(
        json.dumps({"event": "record_error", "line": error.line_number, "reason": error.reason}),
        file=sys.stderr,
    )


def _open_source(path: str, stack: ExitStack) -> IO[bytes]:
    if path == "-":
        return sys.stdin.buffer
    return stack.enter_context(open(path, "rb"))


def _open_sink(path: str, stack: ExitStack) -> IO[str]:
    if path == "-":
        return sys.stdout
    return stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))


# ---------------------------------------------------------------------------
# mask settings


def _add_mask_settings(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    """Declare the ``mask`` settings on ``parser``.  Each is also a
    config-file key, named by its ``dest``.  None has a default here: a
    setting the user does not give keeps its config dataclass's default."""
    add = parser.add_argument
    return [
        add("--strategy", choices=[s.value for s in Strategy]),
        add("--mask-ratio", type=float),
        add("--copy-ratio", type=float),
        add("--salience-variant", choices=[v.value for v in SalienceVariant]),
        add("--seed", type=int),
        add("--entities", choices=[e.value for e in EntitySource]),
        add("--input-token-limit", type=int),
        add("--output-token-limit", type=int),
        add("--doc-sep-token"),
        add("--sent-mask-token"),
        add(
            "--no-lead-sep",
            action="store_true",
            default=None,
            help="emit separators only between documents, not before the first",
        ),
        add("--no-lowercase", action="store_true", default=None),
        add("--no-strip-punctuation", action="store_true", default=None),
        add("--stemming", choices=[s.value for s in Stemming]),
        add("--workers", type=int),
        add("--strict", action="store_true", default=None),
        add(
            "--emit-text",
            action="store_true",
            default=None,
            help="also write space-joined input_text/target_text fields",
        ),
        add("--progress-every", type=int),
        add("--abbreviations", help="override the packaged abbreviation list"),
    ]


def _config_value(key: str, value, action: argparse.Action):
    """A config-file value, checked against its flag and converted as the
    flag converts its text.  Switches take true/false, integer settings
    whole numbers, number settings numbers and the rest strings."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if action.nargs == 0:
        kind, ok = "true or false", isinstance(value, bool)
    elif action.type is int:
        kind, ok = "an integer", number and (isinstance(value, int) or value.is_integer())
    elif action.type is float:
        kind, ok = "a number", number
    else:
        kind, ok = "a string", isinstance(value, str)
    if not ok:
        raise CorpusError(f"config key {key!r} must be {kind}, got {json.dumps(value)}")
    return action.type(value) if action.type else value


def _load_config_file(path: str, settings: dict[str, argparse.Action]) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise CorpusError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CorpusError(f"config file {path} must hold a JSON object")
    resolved = {}
    for key, value in raw.items():
        norm = key.lstrip("-").replace("-", "_")
        if norm not in settings:
            raise CorpusError(f"unknown config key {key!r} in {path}")
        if isinstance(value, (dict, list)):
            raise CorpusError(f"config key {key!r} must be a scalar")
        resolved[norm] = _config_value(key, value, settings[norm])
    return resolved


def _given_settings(args: argparse.Namespace) -> dict:
    """The ``mask`` settings the user gave, by config key: flags over
    config-file values, with ``PYRAMID_MASKER_WORKERS`` over both."""
    settings = {action.dest: action for action in _add_mask_settings(argparse.ArgumentParser())}
    given = _load_config_file(args.config, settings) if args.config else {}
    for key in settings:
        value = getattr(args, key)
        if value is not None:
            given[key] = value
    env_workers = os.environ.get("PYRAMID_MASKER_WORKERS")
    if env_workers:
        try:
            given["workers"] = int(env_workers)
        except ValueError as exc:
            raise CorpusError(f"PYRAMID_MASKER_WORKERS must be an integer: {env_workers!r}") from exc
    return given


def _pick(given: dict, *names: str, **converted: tuple) -> dict:
    """Keyword arguments for the settings in ``given``: each of ``names``
    as it is, and each ``field=(setting, convert)`` converted."""
    kwargs = {name: given[name] for name in names if name in given}
    for field, (name, convert) in converted.items():
        if name in given:
            kwargs[field] = convert(given[name])
    return kwargs


def _build_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """Settings the user did not give keep their dataclass defaults."""
    given = _given_settings(args)
    try:
        return PipelineConfig(
            normalization=NormalizationConfig(
                **_pick(
                    given,
                    lowercase=("no_lowercase", not_),
                    strip_punctuation=("no_strip_punctuation", not_),
                    stemming=("stemming", Stemming),
                )
            ),
            selection=SelectionConfig(
                **_pick(
                    given,
                    "mask_ratio",
                    "copy_ratio",
                    "seed",
                    strategy=("strategy", Strategy),
                    variant=("salience_variant", SalienceVariant),
                )
            ),
            mask=MaskConfig(
                **_pick(
                    given,
                    "input_token_limit",
                    "output_token_limit",
                    "doc_sep_token",
                    "sent_mask_token",
                    lead_separator=("no_lead_sep", not_),
                )
            ),
            **_pick(
                given,
                "workers",
                "strict",
                "emit_text",
                "progress_every",
                entity_source=("entities", EntitySource),
                abbreviations=("abbreviations", load_abbreviations),
            ),
        )
    except ValueError as exc:
        raise CorpusError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_mask(args: argparse.Namespace) -> int:
    """A cluster that cannot make an example is skipped inside
    ``run_mask``; any other exception is a fault of the program, which
    ends the run as one ``fatal`` line carrying its traceback."""
    config = _build_pipeline_config(args)
    with ExitStack() as stack:
        source = _open_source(args.input, stack)
        sink = _open_sink(args.output, stack)
        try:
            report = run_mask(source, sink, config)
        except (CorpusError, OSError):
            raise
        except Exception as exc:
            return _fatal(
                f"internal error: {type(exc).__name__}: {exc}",
                traceback=traceback.format_exc(),
            )
    return report.exit_code


def cmd_stats(args: argparse.Namespace) -> int:
    with ExitStack() as stack:
        source = _open_source(args.input, stack)
        clusters = load_clusters(source, strict=args.strict, on_error=_record_error)
        stats = compute_corpus_stats(clusters)
    print(json.dumps(stats.to_json_dict()))
    return 0


def cmd_score_sentence(args: argparse.Namespace) -> int:
    abbreviations = load_abbreviations(args.abbreviations) if args.abbreviations else None
    variant = SalienceVariant(args.salience_variant)
    with ExitStack() as stack:
        source = _open_source(args.input, stack)
        target = None
        for cluster in load_clusters(source, on_error=_record_error):
            if args.cluster_id is None or cluster.cluster_id == args.cluster_id:
                target = cluster
                break
    if target is None:
        wanted = args.cluster_id if args.cluster_id is not None else "<first cluster>"
        return _fatal(f"cluster {wanted!r} not found in {args.input}")
    sentences = segment_cluster(target, abbreviations=abbreviations)
    scorer = ClusterScorer(sentences, variant)
    rows = [
        {
            "doc": s.doc_index,
            "sent": s.sent_index,
            "text": s.text,
            "principle": scorer.principle(s),
            "cluster_rouge": scorer.cluster(s),
        }
        for s in sorted(sentences, key=by_position)
    ]
    print(
        json.dumps(
            {"cluster_id": target.cluster_id, "salience_variant": variant.value, "sentences": rows},
            ensure_ascii=False,
        )
    )
    return 0


def cmd_eval_pyramid(args: argparse.Namespace) -> int:
    aggregation = CoverageAggregation(args.aggregation)
    len_unit = LengthUnit(args.len_unit)
    results = []
    scores = []
    with ExitStack() as stack:
        source = _open_source(args.input, stack)
        for line_number, raw in enumerate(source, 1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
                summary_id, score = record_score(record, aggregation, len_unit)
            except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as exc:
                if args.strict:
                    raise CorpusError(f"line {line_number}: {exc}") from exc
                _record_error(RecordError(line_number, str(exc)))
                continue
            scores.append(score)
            results.append(
                {
                    "summary_id": summary_id,
                    "raw": score.raw,
                    "recall": score.recall,
                    "precision": score.precision,
                    "f1": score.f1,
                }
            )
    mean = mean_score(scores)
    mean_dict = None
    if mean is not None:
        mean_dict = {
            "raw": mean.raw,
            "recall": mean.recall,
            "precision": mean.precision,
            "f1": mean.f1,
        }
    print(json.dumps({"summaries": results, "mean": mean_dict}))
    return 0 if results else 2


def cmd_inspect(args: argparse.Namespace) -> int:
    with ExitStack() as stack:
        source = _open_source(args.input, stack)
        record = None
        for line_number, raw in enumerate(source, 1):
            if not raw.strip():
                continue
            try:
                candidate = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return _fatal(f"line {line_number}: {exc}")
            if not isinstance(candidate, dict):
                _record_error(RecordError(line_number, "record is not a JSON object"))
                continue
            if args.cluster_id is None or candidate.get("cluster_id") == args.cluster_id:
                record = candidate
                break
    if record is None:
        wanted = args.cluster_id if args.cluster_id is not None else "<first record>"
        return _fatal(f"example {wanted!r} not found in {args.input}")
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
        lines.append("")
        lines.append("scores:")
        for key, value in scores.items():
            lines.append(f"  {key:>8}  {value:.6f}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pyramid-masker",
        description="Build gap-sentence pretraining examples from multi-document clusters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mask = sub.add_parser("mask", help="convert a corpus into masked pretraining examples")
    mask.add_argument("--input", default="-", help="corpus JSONL path, or - for stdin")
    mask.add_argument("--output", default="-", help="output JSONL path, or - for stdout")
    mask.add_argument("--config", help="flat JSON config file; flags win over it")
    _add_mask_settings(mask)
    mask.set_defaults(func=cmd_mask)

    stats = sub.add_parser("stats", help="corpus-level statistics as JSON")
    stats.add_argument("--input", default="-")
    stats.add_argument("--strict", action="store_true", default=False)
    stats.set_defaults(func=cmd_stats)

    score = sub.add_parser("score-sentence", help="per-sentence salience scores for one cluster")
    score.add_argument("--input", default="-")
    score.add_argument("--cluster-id", dest="cluster_id", help="defaults to the first cluster")
    score.add_argument(
        "--salience-variant",
        choices=[v.value for v in SalienceVariant],
        default=DEFAULT_VARIANT.value,
        dest="salience_variant",
    )
    score.add_argument("--abbreviations")
    score.set_defaults(func=cmd_score_sentence)

    pyr = sub.add_parser("eval-pyramid", help="score summaries against weighted content units")
    pyr.add_argument("--input", default="-")
    pyr.add_argument(
        "--aggregation",
        choices=[a.value for a in CoverageAggregation],
        default=CoverageAggregation.MEAN.value,
    )
    pyr.add_argument(
        "--len-unit",
        choices=[u.value for u in LengthUnit],
        default=LengthUnit.WORDS.value,
        dest="len_unit",
    )
    pyr.add_argument("--strict", action="store_true", default=False)
    pyr.set_defaults(func=cmd_eval_pyramid)

    inspect = sub.add_parser("inspect", help="pretty-print one emitted example")
    inspect.add_argument("--input", default="-")
    inspect.add_argument("--cluster-id", dest="cluster_id", help="defaults to the first record")
    inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CorpusError as exc:
        return _fatal(str(exc))
    except OSError as exc:
        return _fatal(str(exc))


if __name__ == "__main__":
    sys.exit(main())
