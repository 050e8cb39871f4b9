#!/usr/bin/env bash
# Sample one harborbench workload's CPU time and print where it goes.
#
#   bash scripts/profile.sh <workload>
#
# Builds harborbench with frame pointers into its own CARGO_TARGET_DIR
# (target/profile/build), compiles a small perf_event_open sampler with gcc,
# and runs one BENCHMARK.json-length run (seed 7, --trace 0) under it. The
# sampler opens one user-only TASK_CLOCK event per CPU on the benchmark
# process with `inherit`, so every thread it starts is sampled (one sample
# per millisecond of CPU time) with its user call chain; the kernel's
# perf_event_paranoid must be 2 or lower. Then prints, per thread group
# (thread names with their trailing number dropped), the functions with the
# most self samples (the sampled frame) and inclusive samples (anywhere in
# the chain). Symbols come from addr2line; a library without line tables
# is placed by its nearest exported symbol.
#
# Writes only under target/profile: the sampler, the build, the raw
# samples (samples.txt) and the benchmark's own output (bench.out).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ "$#" -ne 1 ]; then
    sed -n '2,20p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
workload="$1"
work="$root/target/profile"
mkdir -p "$work"

cat > "$work/sampler.c" <<'C'
/* sampler <out> <cmd> [args...]: run cmd, sampling its user call chains. */
#define _GNU_SOURCE
#include <linux/perf_event.h>
#include <poll.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#define DATA_PAGES 128 /* per CPU; a power of two */
#define MAX_CPUS 256

struct ring {
    int fd;
    struct perf_event_mmap_page *meta;
    char *data;
    uint64_t size;
};

static uint64_t lost;

static void drain(struct ring *r, FILE *out) {
    uint64_t head = __atomic_load_n(&r->meta->data_head, __ATOMIC_ACQUIRE);
    uint64_t tail = r->meta->data_tail;
    char rec[65536];
    while (tail < head) {
        struct perf_event_header h;
        for (size_t i = 0; i < sizeof h; i++)
            ((char *)&h)[i] = r->data[(tail + i) % r->size];
        if (h.size < sizeof h || h.size > sizeof rec)
            break;
        for (size_t i = 0; i < h.size; i++)
            rec[i] = r->data[(tail + i) % r->size];
        tail += h.size;
        uint32_t *ids = (uint32_t *)(rec + sizeof h);
        if (h.type == PERF_RECORD_SAMPLE) {
            uint64_t nr = *(uint64_t *)(rec + sizeof h + 8);
            uint64_t *ips = (uint64_t *)(rec + sizeof h + 16);
            fprintf(out, "S %u %u", ids[0], ids[1]);
            for (uint64_t i = 0; i < nr; i++)
                if (ips[i] < (uint64_t)PERF_CONTEXT_MAX)
                    fprintf(out, " %lx", (unsigned long)ips[i]);
            fputc('\n', out);
        } else if (h.type == PERF_RECORD_COMM) {
            fprintf(out, "C %u %u %s\n", ids[0], ids[1], rec + sizeof h + 8);
        } else if (h.type == PERF_RECORD_MMAP) {
            uint64_t *m = (uint64_t *)(rec + sizeof h + 8);
            fprintf(out, "M %u %lx %lx %lx %s\n", ids[0], (unsigned long)m[0],
                    (unsigned long)m[1], (unsigned long)m[2], (char *)(m + 3));
        } else if (h.type == PERF_RECORD_LOST) {
            lost += *(uint64_t *)(rec + sizeof h + 8);
        }
    }
    __atomic_store_n(&r->meta->data_tail, tail, __ATOMIC_RELEASE);
}

int main(int argc, char **argv) {
    if (argc < 3) {
        fprintf(stderr, "usage: sampler <out> <cmd> [args...]\n");
        return 2;
    }
    FILE *out = fopen(argv[1], "w");
    if (!out) {
        perror(argv[1]);
        return 1;
    }
    int go[2];
    if (pipe(go)) {
        perror("pipe");
        return 1;
    }
    pid_t child = fork();
    if (child == 0) {
        char c;
        close(go[1]);
        if (read(go[0], &c, 1) != 1)
            _exit(126);
        execvp(argv[2], argv + 2);
        perror(argv[2]);
        _exit(127);
    }
    close(go[0]);

    long page = sysconf(_SC_PAGESIZE);
    int cpus = (int)sysconf(_SC_NPROCESSORS_CONF);
    if (cpus > MAX_CPUS)
        cpus = MAX_CPUS;
    static struct ring rings[MAX_CPUS];
    struct pollfd fds[MAX_CPUS];
    struct perf_event_attr attr;
    memset(&attr, 0, sizeof attr);
    attr.size = sizeof attr;
    attr.type = PERF_TYPE_SOFTWARE;
    attr.config = PERF_COUNT_SW_TASK_CLOCK;
    attr.sample_period = 1000000; /* ns of CPU time per sample */
    attr.sample_type = PERF_SAMPLE_TID | PERF_SAMPLE_CALLCHAIN;
    attr.disabled = 1;
    attr.enable_on_exec = 1;
    attr.inherit = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.exclude_callchain_kernel = 1;
    attr.mmap = 1;
    attr.comm = 1;
    for (int cpu = 0; cpu < cpus; cpu++) {
        int fd = (int)syscall(SYS_perf_event_open, &attr, child, cpu, -1, 0);
        if (fd < 0) {
            perror("perf_event_open");
            kill(child, SIGKILL);
            return 1;
        }
        uint64_t size = (uint64_t)DATA_PAGES * page;
        void *m = mmap(NULL, size + page, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
        if (m == MAP_FAILED) {
            perror("mmap");
            kill(child, SIGKILL);
            return 1;
        }
        rings[cpu] = (struct ring){fd, m, (char *)m + page, size};
        fds[cpu] = (struct pollfd){fd, POLLIN, 0};
    }
    if (write(go[1], "g", 1) != 1) {
        perror("write");
        return 1;
    }
    close(go[1]);

    int status = 0;
    for (;;) {
        poll(fds, cpus, 10);
        for (int cpu = 0; cpu < cpus; cpu++)
            drain(&rings[cpu], out);
        if (waitpid(child, &status, WNOHANG) == child)
            break;
    }
    for (int cpu = 0; cpu < cpus; cpu++)
        drain(&rings[cpu], out);
    fclose(out);
    if (lost)
        fprintf(stderr, "sampler: %lu samples lost\n", (unsigned long)lost);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}
C
gcc -O2 -Wall -o "$work/sampler" "$work/sampler.c"

echo "==> building harborbench with frame pointers" >&2
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$work/build" \
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"

seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")"
echo "==> sampling $workload for ${seconds}s (seed 7)" >&2
"$work/sampler" "$work/samples.txt" "$work/build/release/harborbench" --out "$work/out" \
    --workload "$workload" --seed 7 --seconds "$seconds" --trace 0 > "$work/bench.out"
tail -n 1 "$work/bench.out" >&2

exec python3 - "$work/samples.txt" <<'PY'
import bisect, collections, re, struct, subprocess, sys

comm, maps, samples = {}, collections.defaultdict(list), []
for line in open(sys.argv[1]):
    kind, rest = line[0], line[2:].rstrip("\n")
    if kind == "C":
        pid, tid, name = rest.split(" ", 2)
        comm[int(tid)] = name
    elif kind == "M":
        pid, start, length, pgoff, path = rest.split(" ", 4)
        maps[int(pid)].append((int(start, 16), int(length, 16), int(pgoff, 16), path))
    elif kind == "S":
        f = rest.split()
        samples.append((int(f[0]), int(f[1]), [int(x, 16) for x in f[2:]]))

def segments(path):
    """PT_LOAD (offset, filesz, vaddr) of a 64-bit little-endian ELF."""
    try:
        with open(path, "rb") as fh:
            ident = fh.read(64)
            if ident[:4] != b"\x7fELF" or ident[4] != 2:
                return []
            phoff, = struct.unpack_from("<Q", ident, 32)
            phentsize, phnum = struct.unpack_from("<HH", ident, 54)
            fh.seek(phoff)
            table = fh.read(phentsize * phnum)
    except OSError:
        return []
    out = []
    for i in range(phnum):
        ptype, _, off, vaddr, _, filesz = struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if ptype == 1:
            out.append((off, filesz, vaddr))
    return out

segs = {}
def locate(pid, ip):
    """(object path, link-time address) of a sampled address."""
    for start, length, pgoff, path in maps.get(pid, ()):
        if start <= ip < start + length:
            off = ip - start + pgoff
            for seg_off, filesz, vaddr in segs.setdefault(path, segments(path)):
                if seg_off <= off < seg_off + filesz:
                    return path, off - seg_off + vaddr
            return path, off
    return None, ip

# Resolve every distinct (object, address) once, per object in one call.
frames, wanted = [], collections.defaultdict(set)
for pid, tid, chain in samples:
    # Every frame but the sampled one is a return address: look up the call.
    located = [locate(pid, ip if i == 0 else ip - 1) for i, ip in enumerate(chain)]
    frames.append(located)
    for path, addr in located:
        if path:
            wanted[path].add(addr)

names = {}
def exported(path):
    try:
        text = subprocess.run(["nm", "-D", "--defined-only", path],
                              capture_output=True, text=True).stdout
    except OSError:
        return [], []
    syms = sorted((int(a, 16), n) for a, t, n in
                  (l.split()[:3] for l in text.splitlines() if len(l.split()) >= 3)
                  if t in "TtWi")
    return [a for a, _ in syms], [n for _, n in syms]

for path, addrs in wanted.items():
    addrs = sorted(addrs)
    try:
        text = subprocess.run(["addr2line", "-f", "-C", "-e", path],
                              input="".join(f"{a:x}\n" for a in addrs),
                              capture_output=True, text=True).stdout.splitlines()
    except OSError:
        text = []
    fallback = None
    base = path.rsplit("/", 1)[-1]
    for i, addr in enumerate(addrs):
        name = text[2 * i] if 2 * i < len(text) else "??"
        if name == "??":
            if fallback is None:
                fallback = exported(path)
            k = bisect.bisect_right(fallback[0], addr) - 1
            name = f"{fallback[1][k]} [{base}]" if k >= 0 else f"?? [{base}]"
        names[(path, addr)] = re.sub(r"::h[0-9a-f]{16}$", "", name)

def group(pid, tid):
    # A thread that never renamed itself keeps the name it was cloned with.
    name = comm.get(tid, comm.get(pid, f"pid {pid}"))
    return re.sub(r"[-_ ]?\d+$", "", name) or "?"

by_group = collections.defaultdict(lambda: [0, collections.Counter(), collections.Counter()])
for (pid, tid, _), located in zip(samples, frames):
    g = by_group[group(pid, tid)]
    fns = [names.get(f, "??") if f[0] else "?? [unmapped]" for f in located]
    g[0] += 1
    if fns:
        g[1][fns[0]] += 1
    g[2].update(set(fns))

total = sum(g[0] for g in by_group.values())
print(f"{total} samples (1 ms of CPU time each) in {len(by_group)} thread groups")
for name, (n, self_, incl) in sorted(by_group.items(), key=lambda kv: -kv[1][0]):
    print(f"\n## {name}: {n} samples ({100 * n / max(total, 1):.1f} %)")
    for title, table in (("self", self_), ("inclusive", incl)):
        print(f"\n   {title:>9}  function")
        for fn, c in table.most_common(25):
            print(f"   {100 * c / n:8.1f}%  {fn[:110]}")
PY
