#!/usr/bin/env python3
"""Turn an ipsample profile into tables of where the samples fell.

    python3 symbolize.py run.prof [--top 25]

Samples inside a mapping that carries debug info (the release binary:
`[profile.release] debug = true`) go through `addr2line -f -i -C`, which
yields the inline chain of each address; three tables come out of that:

  outermost   the real (non-inlined) function the address belongs to
  leaf        the innermost inlined function, i.e. the code that ran
  chain       outermost <- ... <- leaf, for telling call sites apart

Samples in mappings without debug info (libc: malloc, free, memmove) are
bucketed by the nearest preceding `nm -D` symbol. A bucket far past its
symbol is printed as `symbol+0x1b000`: the code there is a function the
dynamic table does not list (on glibc the memmove/memset variants picked
at load time sit behind `__nss_database_lookup`, malloc's internals behind
`__default_morecore`).

The sampler's clock is wall time, so a thread asleep in the kernel is
sampled too, at the libc call it sleeps in (Rust's parking is `syscall`
with `SYS_futex`). Those buckets are printed as `[waiting] syscall
[libc.so.6]` and a first table splits every sampled thread's samples into
running and waiting — on a run whose main thread parks while pool workers
generate the trace, that share is the main thread waiting for them, not
kernel time. Standard library only; needs binutils' addr2line and nm on
PATH.
"""

import argparse
import bisect
import collections
import subprocess
import sys


# libc entry points a thread blocks in rather than works in.
WAITING = {"syscall", "pthread_cond_wait", "pthread_cond_timedwait", "pthread_cond_clockwait",
           "nanosleep", "clock_nanosleep", "poll", "ppoll", "epoll_wait", "sched_yield"}


def read_profile(path):
    """Returns (file mappings as (start, end, offset, executable, file), samples
    as (address, thread id), the main thread's id). A profile written before
    the sampler recorded threads reads as one thread, 0."""
    maps, samples, in_samples, main_tid = [], [], False, 0
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("--samples--"):
                in_samples = True
                main_tid = int(line.split()[1]) if " " in line else 0
            elif in_samples:
                ip, _, tid = line.partition(" ")
                samples.append((int(ip, 16), int(tid or 0)))
            else:
                parts = line.split(None, 5)
                if len(parts) == 6 and parts[5].startswith("/"):
                    start, end = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((start, end, int(parts[2], 16), "x" in parts[1], parts[5]))
    return maps, samples, main_tid


def load_base(maps, path):
    """Where the file's offset 0 is mapped: what a PIE's or a shared
    object's link-time addresses are relative to."""
    return min(start - offset for start, _, offset, _, file in maps if file == path)


def is_pie_or_shared(path):
    with open(path, "rb") as f:
        header = f.read(18)
    return header[16] == 3  # e_type == ET_DYN


def inline_chains(path, addrs):
    """addr -> [(function, file:line), ...], leaf first, via addr2line -i."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
        input="".join(f"{a:#x}\n" for a in addrs), capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    chains, current, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x") and " " not in out[i]:
            current = chains.setdefault(int(out[i], 16), [])
            i += 1
        else:
            current.append((out[i], out[i + 1] if i + 1 < len(out) else "??:0"))
            i += 2
    return chains


def dynamic_symbols(path):
    """Sorted (address, name) of the defined dynamic symbols."""
    out = subprocess.run(["nm", "-D", "--defined-only", path],
                         capture_output=True, text=True).stdout
    symbols = []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[1] in "TtWwiI":
            symbols.append((int(parts[0], 16), parts[2].split("@")[0]))
    return sorted(symbols)


def short(name):
    """Drop generic arguments and the crate hash so a table row fits a line."""
    depth, kept = 0, []
    for ch in name:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0:
            kept.append(ch)
    return "".join(kept).replace("::::", "::") or name


def thread_table(samples, waiting_ips, main_tid):
    """One row per sampled thread: its share of the samples, and how that
    share splits into running and waiting."""
    per_thread = collections.defaultdict(lambda: [0, 0])
    for ip, tid in samples:
        per_thread[tid][ip in waiting_ips] += 1
    print(f"\n== threads ({len(samples)} samples; the timer's signal goes to the main thread "
          "unless it blocks it) ==")
    print(" share  samples  running  waiting  thread")
    for tid, (running, waiting) in sorted(per_thread.items(), key=lambda kv: -sum(kv[1])):
        n = running + waiting
        print(f"{100 * n / len(samples):6.2f}%  {n:7d}  {100 * running / n:6.2f}%  "
              f"{100 * waiting / n:6.2f}%  {tid}{' (main)' if tid == main_tid else ''}")


def table(title, counter, total, top):
    print(f"\n== {title} ({total} samples) ==")
    for name, n in counter.most_common(top):
        print(f"{100 * n / total:6.2f}%  {n:7d}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    maps, samples, main_tid = read_profile(args.profile)
    if not samples:
        sys.exit("symbolize: the profile holds no samples")
    by_file = collections.defaultdict(list)
    unmapped = 0
    waiting_ips = set()
    for ip, _ in samples:
        for start, end, _, executable, path in maps:
            if executable and start <= ip < end:
                by_file[path].append(ip)
                break
        else:
            unmapped += 1  # vdso, JIT, anonymous

    outer, leaf, chain_rows = (collections.Counter() for _ in range(3))
    if unmapped:
        outer["[unmapped: vdso/anonymous]"] = leaf["[unmapped: vdso/anonymous]"] = unmapped
    for path, ips in by_file.items():
        base = load_base(maps, path) if is_pie_or_shared(path) else 0
        addrs = collections.Counter(ip - base for ip in ips)
        chains = inline_chains(path, sorted(addrs))
        # No line anywhere: the mapping has no debug info, and the names
        # addr2line gave are nearest-symbol guesses without the distance.
        has_lines = any(not line.startswith("??") for c in chains.values() for _, line in c)
        symbols = None if has_lines else dynamic_symbols(path)
        lib = path.rsplit("/", 1)[-1]
        for addr, n in addrs.items():
            chain = chains.get(addr) or [("??", "??:0")]
            if symbols is not None:
                i = bisect.bisect_right(symbols, (addr, "\xff")) - 1
                if i < 0:
                    name = f"?? [{lib}]"
                else:
                    page = (addr - symbols[i][0]) & ~0xFFF
                    name = f"{symbols[i][1]}{f'+{page:#x}' if page else ''} [{lib}]"
                    if not page and symbols[i][1] in WAITING:
                        name = f"[waiting] {name}"
                        waiting_ips.add(addr + base)
                outer[name] += n
                leaf[name] += n
                chain_rows[name] += n
                continue
            names = [short(fn) for fn, _ in chain]
            outer[names[-1]] += n
            leaf[f"{names[0]}  ({chain[0][1].rsplit('/', 1)[-1]})"] += n
            chain_rows[" <- ".join(reversed(names))] += n

    total = len(samples)
    thread_table(samples, waiting_ips, main_tid)
    table("outermost function", outer, total, args.top)
    table("leaf (innermost inlined function, file:line)", leaf, total, args.top)
    table("inline chain, outermost first", chain_rows, total, args.top)


if __name__ == "__main__":
    main()
