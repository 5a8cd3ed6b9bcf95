"""Append-only JSONL result cache with crash-safe resume.

One file per orbifold.  Each finished q is one append: its class records,
then a completion marker for the key (n, k, q) under one survey
configuration (exact_k, proxy_prime, second_prime).  Class records belong
to the marker that closes their append, so records of a crashed append
are never served, and neither are records computed under another
configuration.  Lines written under another schema version are skipped
(their keys recompute); lines that fail to parse are moved to a side file,
once, and their keys recomputed.  Records come back without the cache's
own fields, exactly as they were appended.
"""

import json
import os

SCHEMA_VERSION = 2
CONFIG_FIELDS = ("exact_k", "proxy_prime", "second_prime")
DEFAULT_CONFIG = {"exact_k": False, "proxy_prime": 31991, "second_prime": None}
_CACHE_FIELDS = ("schema", "kind")


def cache_path(cache_dir: str, n: int, k: int) -> str:
    return os.path.join(cache_dir, f"twist_n{n}_k{k}.jsonl")


def _marker(n, k, q, count, config):
    marker = {"schema": SCHEMA_VERSION, "kind": "q_done", "n": n, "k": k, "q": q}
    marker["classes"] = count
    marker.update((f, config[f]) for f in CONFIG_FIELDS)
    return marker


def append_q_records(path: str, n: int, k: int, q: int, records, config=DEFAULT_CONFIG):
    """Write all class records for one q plus its completion marker in a
    single append (atomic at the line level)."""
    lines = []
    for rec in records:
        body = dict(rec)
        body["schema"] = SCHEMA_VERSION
        body["kind"] = "class"
        lines.append(json.dumps(body, sort_keys=True))
    lines.append(json.dumps(_marker(n, k, q, len(records), config), sort_keys=True))
    payload = "\n".join(lines) + "\n"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())


def read_cache(path: str, config=DEFAULT_CONFIG):
    """Returns (done: dict (n,k,q) -> class count, records: list, bad: int)
    for the keys finished under `config`.

    Unparseable lines are appended to `<path>.quarantine` and the cache is
    rewritten without them, so each is quarantined once.
    """
    done = {}
    good_lines = []
    bad_lines = []
    if not os.path.exists(path):
        return {}, [], 0
    if not os.access(path, os.R_OK):
        raise OSError(f"cache file {path} is not readable")
    pending = []  # class records of the append being read
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if obj.get("schema") != SCHEMA_VERSION:
                    good_lines.append(line)
                    continue
                kind = obj["kind"]
                key = (obj["n"], obj["k"], obj["q"])
                if kind == "class":
                    pending.append(obj)
                elif kind == "q_done":
                    count = obj["classes"]
                    same = all(obj[f] == config[f] for f in CONFIG_FIELDS)
                    mine = [r for r in pending if (r["n"], r["k"], r["q"]) == key]
                    pending = []
                    if same and len(mine) >= count:
                        done[key] = mine[len(mine) - count:]
                else:
                    raise ValueError("unknown record kind")
                good_lines.append(line)
            except (ValueError, KeyError, TypeError, AttributeError):
                bad_lines.append(line)
    if bad_lines:
        with open(path + ".quarantine", "a", encoding="utf-8") as fh:
            for line in bad_lines:
                fh.write(line + "\n")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in good_lines:
                fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    records = [
        {f: v for f, v in r.items() if f not in _CACHE_FIELDS}
        for recs in done.values()
        for r in recs
    ]
    return {key: len(recs) for key, recs in done.items()}, records, len(bad_lines)


def cache_resume(cache_dir: str, plan, config=DEFAULT_CONFIG):
    """Filter a plan of (n, k, q) work items down to what is not yet done
    under `config`.

    Idempotent; corrupted lines are quarantined (their keys recompute).
    """
    if not os.path.isdir(cache_dir):
        raise OSError(f"cache directory {cache_dir} does not exist")
    if not os.access(cache_dir, os.R_OK):
        raise OSError(f"cache directory {cache_dir} is not readable")
    done_all = {}
    for n, k in sorted({(n, k) for n, k, _ in plan}):
        done, _, _ = read_cache(cache_path(cache_dir, n, k), config)
        done_all.update(done)
    return [item for item in plan if tuple(item) not in done_all]
