#!/usr/bin/env python3
"""Sampling profiler for the simulator binaries, standard library only.

Runs a command under a software task-clock sampling event and prints where
its CPU time went, grouped by function.

    python3 tools/sample_profile.py [--freq HZ] [--top N] [--by outer|inner|both|line] \\
        [--raw FILE] -- COMMAND [ARGS...]

How it samples:

* one `perf_event_open` event per CPU on the command's process, with
  `inherit` set so every worker thread the command starts is sampled too,
  and `enable_on_exec` so sampling starts when the command does;
* the event is the software `PERF_COUNT_SW_TASK_CLOCK`, which needs no
  hardware PMU and runs at `perf_event_paranoid` 2 (user space only);
* each sample is the user-space instruction pointer, read from the per-CPU
  ring buffers while the command runs.

How it symbolizes: each sample is mapped through the command's executable
mappings (from `/proc/PID/maps`, read while it runs) to an ELF virtual
address and resolved with `addr2line -i -f -C`. `-i` expands inlined
frames; `--by outer` (the default) charges a sample to the outermost,
non-inlined function, `--by inner` to the innermost inlined one, and
`--by both` to the pair "outer > inner", and `--by line` to the outer
function and the innermost source line. Binaries
need debug info for inlined frames: the workspace's release profile has it;
build a perfbench binary for profiling with `CARGO_PROFILE_RELEASE_DEBUG=true`.

The command's exit status is returned. Samples are taken only in user space,
so time in system calls shows up under the calling function's neighbours or
not at all. Shared libraries without a symbol table (a stripped libc) only
name their exported functions, so a sample in an internal one, such as a
`memmove` variant, is charged to the nearest exported symbol before it
(for example `__nss_database_lookup`).
"""

import argparse
import ctypes
import mmap
import os
import platform
import select
import struct
import subprocess
import sys
import time
from collections import Counter

PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}
PERF_TYPE_SOFTWARE = 1
PERF_COUNT_SW_TASK_CLOCK = 1
PERF_SAMPLE_IP = 1 << 0
PERF_SAMPLE_TID = 1 << 1
PERF_FLAG_FD_CLOEXEC = 1 << 3
PERF_RECORD_LOST = 2
PERF_RECORD_SAMPLE = 9

# perf_event_attr flag bits.
DISABLED = 1 << 0
INHERIT = 1 << 1
EXCLUDE_KERNEL = 1 << 5
EXCLUDE_HV = 1 << 6
FREQ = 1 << 10
ENABLE_ON_EXEC = 1 << 12

# perf_event_attr up to PERF_ATTR_SIZE_VER5 (112 bytes).
ATTR_FORMAT = "=IIQQQQQIIQQQQIiQIHH"
RING_PAGES = 64


def perf_event_open(attr, pid, cpu):
    libc = ctypes.CDLL(None, use_errno=True)
    nr = PERF_EVENT_OPEN.get(platform.machine())
    if nr is None:
        sys.exit(f"unsupported architecture {platform.machine()}")
    buf = ctypes.create_string_buffer(attr)
    fd = libc.syscall(nr, buf, pid, cpu, -1, PERF_FLAG_FD_CLOEXEC)
    if fd < 0:
        err = ctypes.get_errno()
        raise OSError(err, f"perf_event_open(cpu={cpu}): {os.strerror(err)}")
    return fd


def task_clock_attr(freq):
    flags = DISABLED | INHERIT | EXCLUDE_KERNEL | EXCLUDE_HV | FREQ | ENABLE_ON_EXEC
    return struct.pack(
        ATTR_FORMAT,
        PERF_TYPE_SOFTWARE,
        struct.calcsize(ATTR_FORMAT),
        PERF_COUNT_SW_TASK_CLOCK,
        freq,
        PERF_SAMPLE_IP | PERF_SAMPLE_TID,
        0,
        flags,
        1,  # wakeup_events
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    )


class Ring:
    """One event's mmap'd ring buffer: a control page and 2^n data pages."""

    def __init__(self, fd):
        self.fd = fd
        self.page = mmap.PAGESIZE
        self.size = RING_PAGES * self.page
        self.map = mmap.mmap(fd, self.page + self.size, mmap.MAP_SHARED,
                             mmap.PROT_READ | mmap.PROT_WRITE)

    def drain(self, ips, lost):
        head = struct.unpack_from("=Q", self.map, 1024)[0]
        tail = struct.unpack_from("=Q", self.map, 1032)[0]
        while tail < head:
            off = self.page + tail % self.size
            hdr = self.read(off, 8)
            kind, _misc, size = struct.unpack("=IHH", hdr)
            if kind == PERF_RECORD_SAMPLE:
                ip, _pid, _tid = struct.unpack("=QII", self.read(off + 8, 16))
                ips[ip] += 1
            elif kind == PERF_RECORD_LOST:
                lost[0] += struct.unpack("=QQ", self.read(off + 8, 16))[1]
            tail += size
        struct.pack_into("=Q", self.map, 1032, tail)

    def read(self, off, n):
        """`n` bytes at data offset `off`, wrapping at the buffer's end."""
        end = self.page + self.size
        if off + n <= end:
            return self.map[off:off + n]
        first = end - off
        return self.map[off:end] + self.map[self.page:self.page + n - first]


def read_maps(pid, maps):
    """Record the command's executable file mappings, once it has exec'd."""
    try:
        if os.readlink(f"/proc/{pid}/exe") == os.path.realpath(sys.executable):
            return
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                parts = line.split(maxsplit=5)
                if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps[(lo, hi)] = (int(parts[2], 16), parts[5].strip())
    except OSError:
        pass


def load_segments(path):
    """PT_LOAD segments of an ELF64 file as (offset, filesz, vaddr)."""
    with open(path, "rb") as f:
        ehdr = f.read(64)
        if ehdr[:4] != b"\x7fELF" or ehdr[4] != 2:
            return []
        phoff = struct.unpack_from("<Q", ehdr, 0x20)[0]
        phentsize, phnum = struct.unpack_from("<HH", ehdr, 0x36)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _flags, p_offset, p_vaddr, _paddr, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_filesz, p_vaddr))
    return segs


def symbolize(ips, maps, by):
    """Charge each sampled address to a function name."""
    per_file = {}
    unknown = 0
    segments = {}
    for ip, n in ips.items():
        hit = next(((lo, off, path) for (lo, hi), (off, path) in maps.items()
                    if lo <= ip < hi), None)
        if hit is None:
            unknown += n
            continue
        lo, off, path = hit
        file_off = ip - lo + off
        if path not in segments:
            segments[path] = load_segments(path)
        vaddr = next((file_off - s_off + s_vaddr for s_off, s_size, s_vaddr in segments[path]
                      if s_off <= file_off < s_off + s_size), None)
        if vaddr is None:
            unknown += n
            continue
        per_file.setdefault(path, Counter())[vaddr] += n
    funcs = Counter()
    if unknown:
        funcs["[unmapped]"] += unknown
    for path, addrs in per_file.items():
        order = list(addrs)
        out = subprocess.run(
            ["addr2line", "-a", "-i", "-f", "-C", "-e", path] + [hex(a) for a in order],
            capture_output=True, text=True, check=True).stdout.splitlines()
        blocks = []
        for line in out:
            if line.startswith("0x"):
                blocks.append([])
            else:
                blocks[-1].append(line)
        lib = os.path.basename(path)
        for addr, block in zip(order, blocks):
            names = block[0::2]
            lines = block[1::2]
            if not names or names[-1] == "??":
                name = f"?? ({lib})"
            elif by == "outer":
                name = names[-1]
            elif by == "inner":
                name = names[0]
            elif by == "both":
                name = f"{names[-1]} > {names[0]}"
            else:
                name = f"{names[-1]} > {lines[0].rsplit('/', 1)[-1]}"
            funcs[name] += addrs[addr]
    return funcs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--freq", type=int, default=1000, help="samples per second per thread")
    ap.add_argument("--top", type=int, default=40, help="functions to print")
    ap.add_argument("--by", choices=["outer", "inner", "both", "line"], default="outer")
    ap.add_argument("--raw", help="also write 'count<TAB>function' lines to this file")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")

    go_r, go_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(go_w)
        os.read(go_r, 1)
        try:
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    os.close(go_r)

    attr = task_clock_attr(args.freq)
    rings = [Ring(perf_event_open(attr, pid, cpu)) for cpu in range(os.cpu_count())]
    os.write(go_w, b"x")
    os.close(go_w)

    ips, lost, maps = Counter(), [0], {}
    poller = select.poll()
    for r in rings:
        poller.register(r.fd, select.POLLIN)
    status = None
    last_maps = 0.0
    while status is None:
        poller.poll(200)
        for r in rings:
            r.drain(ips, lost)
        if time.monotonic() - last_maps > 0.5:
            read_maps(pid, maps)
            last_maps = time.monotonic()
        done, st = os.waitpid(pid, os.WNOHANG)
        if done:
            status = st
    for r in rings:
        r.drain(ips, lost)

    total = sum(ips.values())
    funcs = symbolize(ips, maps, args.by)
    print(f"# {total} samples at {args.freq} Hz, {lost[0]} lost, by {args.by} function",
          file=sys.stderr)
    for name, n in funcs.most_common(args.top):
        print(f"{100.0 * n / max(total, 1):6.2f}%  {n:8d}  {name}", file=sys.stderr)
    if args.raw:
        with open(args.raw, "w") as f:
            for name, n in funcs.most_common():
                f.write(f"{n}\t{name}\n")
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
