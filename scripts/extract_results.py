#!/usr/bin/env python3
"""Extract machine-readable CSV from the benchmark harness output.

The figure/table benchmarks print aligned text tables (via
support/TablePrinter). This script slices a saved run log — e.g. the
repository's bench_output.txt — back into CSV files, one per table, so the
paper's figures can be re-plotted with any tool.

It also ingests the decision-log JSONL export (``atmem_explain run.atdl
--jsonl decisions.jsonl``) and prints a per-object promotion summary, and
the per-epoch time series (``atmem_run --timeseries-out ts.jsonl``),
which it flattens into one plotting-ready CSV with an epoch column.

Usage:
    scripts/extract_results.py bench_output.txt -o results/
    scripts/extract_results.py bench_output.txt --list
    scripts/extract_results.py --decisions decisions.jsonl
    scripts/extract_results.py --timeseries ts.jsonl -o results/
"""

import argparse
import json
import os
import re
import sys


def split_columns(header):
    """Return [(name, start, end)] column spans from an aligned header row.

    Columns are separated by runs of two or more spaces; each column's text
    may itself contain single spaces ("data ratio").
    """
    spans = []
    for match in re.finditer(r"\S+(?: \S+)*", header):
        spans.append((match.group(0), match.start(), match.end()))
    return spans


def slice_row(line, spans):
    """Split a table row using the header's column start offsets."""
    cells = []
    for idx, (_, start, _) in enumerate(spans):
        end = spans[idx + 1][1] if idx + 1 < len(spans) else len(line)
        cells.append(line[start:end].strip())
    return cells


def find_tables(lines):
    """Yield (title, header_cells, rows) for every table in the log.

    A table is a header line followed by a dashed rule; the nearest
    preceding banner or section line provides the title.
    """
    title = "untitled"
    i = 0
    while i < len(lines):
        line = lines[i].rstrip("\n")
        if line.startswith("Figure") or line.startswith("Table") or \
           line.startswith("Ablation") or line.startswith("Extension") or \
           line.startswith("Section") or line.startswith("["):
            title = line.strip("[]")
        if i + 1 < len(lines) and re.fullmatch(r"-{4,}", lines[i + 1].strip()) \
           and len(line.split()) >= 2:
            spans = split_columns(line)
            rows = []
            j = i + 2
            while j < len(lines):
                row = lines[j].rstrip("\n")
                if not row.strip() or row.startswith("=") or \
                   re.fullmatch(r"-{4,}", row.strip()):
                    break
                rows.append(slice_row(row, spans))
                j += 1
            yield title, [name for name, _, _ in spans], rows
            i = j
            continue
        i += 1


def sanitize(title):
    slug = re.sub(r"[^A-Za-z0-9]+", "_", title.lower()).strip("_")
    return slug[:60] or "table"


def summarize_decisions(path):
    """Print a per-object promotion summary from a decision-log JSONL export.

    One row per object aggregated over epochs: how many chunks carried
    samples, how many classified critical (sampled + global-ranked), how
    many the m-ary tree promoted, the last-seen Eq. 4 weight / Eq. 5 TR',
    and how many chunk-ranges were committed, rolled back, or skipped for
    that object.
    """
    objects = {}  # id -> aggregate dict
    names = {}

    def entry(obj_id):
        return objects.setdefault(obj_id, {
            "name": "", "epochs": set(), "sampled": 0, "critical": 0,
            "global": 0, "promoted": 0, "weight": 0.0, "tr": 0.0,
            "committed": 0, "rolled_back": 0, "skipped": 0,
            "renominated": 0,
        })

    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                print(f"{path}:{line_no}: bad JSON: {err}", file=sys.stderr)
                return 1
            kind = rec.get("kind")
            if kind == "name":
                names[rec["id"]] = rec["name"]
            elif kind == "object":
                agg = entry(rec["object"])
                agg["name"] = rec.get("name") or agg["name"]
                agg["epochs"].add(rec["epoch"])
                agg["weight"] = rec["weight"]
                agg["tr"] = rec["tr_threshold"]
            elif kind == "chunk":
                agg = entry(rec["object"])
                if rec.get("samples", 0) > 0:
                    agg["sampled"] += 1
                if rec.get("sampled_critical"):
                    agg["critical"] += 1
                if rec.get("global_ranked"):
                    agg["global"] += 1
                if rec.get("promoted"):
                    agg["promoted"] += 1
            elif kind == "migration":
                agg = entry(rec["object"])
                phase = rec.get("phase")
                if phase in ("committed", "rolled_back", "skipped",
                             "renominated"):
                    agg[phase] += 1

    if not objects:
        print("no decision records found", file=sys.stderr)
        return 1

    header = ["object", "epochs", "sampled", "critical", "global",
              "promoted", "weight", "TR'", "committed", "rolled back",
              "skipped", "renominated"]
    rows = []
    for obj_id in sorted(objects):
        agg = objects[obj_id]
        rows.append([agg["name"] or f"#{obj_id}", str(len(agg["epochs"])),
                     str(agg["sampled"]), str(agg["critical"]),
                     str(agg["global"]), str(agg["promoted"]),
                     f"{agg['weight']:.4g}", f"{agg['tr']:.4g}",
                     str(agg["committed"]), str(agg["rolled_back"]),
                     str(agg["skipped"]), str(agg["renominated"])])
    widths = [max(len(header[i]), max(len(row[i]) for row in rows))
              for i in range(len(header))]
    print("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
    print("  ".join("-" * widths[i] for i in range(len(header))))
    for row in rows:
        print("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))
    return 0


# Column order of the time-series CSV: epoch first, then the gauges in
# the order the runtime emits them, so plots line up across runs.
TIMESERIES_COLUMNS = [
    "epoch", "accesses", "misses_fast", "misses_slow",
    "slow_miss_fraction", "drain_misses_per_sec", "migration_bytes",
    "migration_ranges", "retries", "rollbacks", "migrate_sim_sec",
    "fast_data_ratio", "optimize_wall_us",
]


def extract_timeseries(path, outdir):
    """Flatten an atmem-timeseries-v1 JSONL export into one CSV.

    The first line must be the schema header; every following line is one
    epoch object. Unknown keys are appended as extra columns so the CSV
    never silently drops data from a newer runtime.
    """
    samples = []
    declared = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                print(f"{path}:{line_no}: bad JSON: {err}", file=sys.stderr)
                return 1
            if line_no == 1:
                if rec.get("schema") != "atmem-timeseries-v1":
                    print(f"{path}: not an atmem-timeseries-v1 export "
                          f"(schema {rec.get('schema')!r})", file=sys.stderr)
                    return 1
                declared = rec.get("epochs")
                continue
            samples.append(rec)

    if not samples:
        print("no epoch samples found", file=sys.stderr)
        return 1
    if declared is not None and declared != len(samples):
        print(f"warning: header declared {declared} epochs, "
              f"found {len(samples)}", file=sys.stderr)

    columns = list(TIMESERIES_COLUMNS)
    for rec in samples:
        for key in rec:
            if key not in columns:
                columns.append(key)

    os.makedirs(outdir, exist_ok=True)
    out_path = os.path.join(
        outdir, sanitize(os.path.basename(path)) + ".csv")
    with open(out_path, "w", encoding="utf-8") as out:
        out.write(",".join(columns) + "\n")
        for rec in samples:
            out.write(",".join(str(rec.get(col, "")) for col in columns)
                      + "\n")
    last = samples[-1]
    print(f"wrote {out_path} ({len(samples)} epochs; final slow-miss "
          f"fraction {last.get('slow_miss_fraction', 'n/a')}, fast-data "
          f"ratio {last.get('fast_data_ratio', 'n/a')})")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("log", nargs="?", help="saved benchmark output")
    parser.add_argument("-o", "--outdir", default="results",
                        help="directory for the CSV files")
    parser.add_argument("--list", action="store_true",
                        help="only list the tables found")
    parser.add_argument("--decisions", metavar="JSONL",
                        help="decision-log JSONL export (atmem_explain "
                             "--jsonl); prints a per-object promotion "
                             "summary instead of table CSVs")
    parser.add_argument("--timeseries", metavar="JSONL",
                        help="per-epoch time-series export (atmem_run "
                             "--timeseries-out); writes one plotting-ready "
                             "CSV into the output directory")
    args = parser.parse_args()

    if args.decisions:
        return summarize_decisions(args.decisions)
    if args.timeseries:
        return extract_timeseries(args.timeseries, args.outdir)
    if not args.log:
        parser.error("either a benchmark log, --decisions, or --timeseries "
                     "is required")

    with open(args.log, encoding="utf-8", errors="replace") as fh:
        lines = fh.readlines()

    tables = list(find_tables(lines))
    if not tables:
        print("no tables found", file=sys.stderr)
        return 1

    if args.list:
        for title, header, rows in tables:
            print(f"{len(rows):4d} rows  {title}  [{', '.join(header)}]")
        return 0

    os.makedirs(args.outdir, exist_ok=True)
    used = {}
    for title, header, rows in tables:
        slug = sanitize(title)
        used[slug] = used.get(slug, 0) + 1
        if used[slug] > 1:
            slug = f"{slug}_{used[slug]}"
        path = os.path.join(args.outdir, slug + ".csv")
        with open(path, "w", encoding="utf-8") as out:
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(cell.replace(",", ";") for cell in row)
                          + "\n")
        print(f"wrote {path} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
