"""Start benchmark jobs from a small process and report each one's rusage.

    python3 -I -S perfbench/launcher.py

First writes one line ``ready PEAK_KB``: this process's own peak RSS.  Then
reads one JSON request per line, ``{"argv": [...], "out": PATH, "err":
PATH, "timeout": SECONDS, "pace": PERIOD}``, runs ``argv`` with stdout and
stderr sent to the two files, kills it when the timeout passes, and writes
back one line ``EXIT_CODE WALL_S CPU_S PEAK_RSS_KB PACE_N PACE_S``.  The exit
code is negative when the job was killed.  Ends at end of input, or on
SIGTERM after killing and reaping a running job.

Why a process of its own: on Linux, exec keeps the high-water mark of the
memory it replaces, so a child's ``ru_maxrss`` is never below the peak RSS
of the process that started it.  Started from the harness, every job would
report at least the harness's peak.  This process loads no more than the
interpreter and ``json``, so the floor it leaves is below what a job needs
to import ``ellarr``.

Pace probes.  On a shared machine the speed a job gets swings by up to 2x
within seconds, with the load of other tenants.  With ``pace`` > 0, after
every ``pace`` seconds of job time the launcher stops the job (SIGSTOP),
has ``pacer.py`` time one probe of fixed work on the CPU the job last ran
on, and lets the job go on (SIGCONT).  The CPU matters: two vCPUs of a
shared host can differ in speed by 2x at the same moment.  The period runs
on across jobs, so a run's probes are spread evenly over its job time,
short jobs included.  ``WALL_S`` leaves out the time the job
was stopped; ``PACE_N`` and ``PACE_S`` are the number and total time of the
probes taken while it ran.  The probes sample the machine's speed at the
moments the job runs, without running anything beside it.
"""

import json
import os
import select
import signal
import sys
import time

TERM = {signal.SIGTERM}


def own_peak_kb() -> int:
    """VmHWM of this process: its memory's peak, without inherited marks."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def last_cpu(pid: int):
    """The CPU a process last ran on, or None if it cannot be read."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def start_pacer():
    """Start ``pacer.py``; returns (pid, request file, reply file)."""
    to_r, to_w = os.pipe()
    from_r, from_w = os.pipe()
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pacer.py")
    pid = os.posix_spawn(sys.executable, [sys.executable, "-I", "-S", path],
                         os.environ, file_actions=[
                             (os.POSIX_SPAWN_DUP2, to_r, 0),
                             (os.POSIX_SPAWN_DUP2, from_w, 1)])
    os.close(to_r)
    os.close(from_w)
    requests, replies = os.fdopen(to_w, "w"), os.fdopen(from_r)
    if replies.readline() != "ready\n":
        raise SystemExit("the pacer did not start")
    return pid, requests, replies


def main() -> int:
    running = [0]          # pid of the running job, 0 when none
    stopping = [False]

    def stop(*_):
        stopping[0] = True
        if not running[0]:
            raise SystemExit(143)
        os.kill(running[0], signal.SIGKILL)

    signal.signal(signal.SIGTERM, stop)
    peak_kb = own_peak_kb()
    pacer, requests, replies = start_pacer()
    try:
        sys.stdout.write("ready %d\n" % peak_kb)
        sys.stdout.flush()
        return serve(running, stopping, requests, replies)
    finally:
        if running[0]:                 # only if something failed mid-job
            os.kill(running[0], signal.SIGKILL)
            os.waitpid(running[0], 0)
        requests.close()
        os.waitpid(pacer, 0)


def serve(running, stopping, requests, replies) -> int:
    since = 0.0            # job time since the last pace probe
    for line in sys.stdin:
        req = json.loads(line)
        period = req.get("pace", 0)
        mode = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, req["out"], mode, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, req["err"], mode, 0o644)]
        # SIGTERM waits until the pid is known, so no job is left behind.
        signal.pthread_sigmask(signal.SIG_BLOCK, TERM)
        t0 = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                             file_actions=actions, setsigmask=())
        running[0] = pid
        signal.pthread_sigmask(signal.SIG_UNBLOCK, TERM)
        deadline = t0 + req["timeout"]
        exited = select.poll()
        pidfd = os.pidfd_open(pid)
        exited.register(pidfd, select.POLLIN)
        paused, paces, resumed, end = 0.0, [], t0, None
        # The job is not reaped before the loop ends, so its pid cannot be
        # reused while the loop may still signal it.
        while True:
            now = time.perf_counter()
            if now >= deadline:
                os.kill(pid, signal.SIGKILL)
                exited.poll()
                break
            wait = deadline - now
            if period:
                wait = min(wait, max(0.0, period - since - (now - resumed)))
            if exited.poll(wait * 1000):
                break
            if not period or since + time.perf_counter() - resumed < period:
                continue
            t_stop = time.perf_counter()
            os.kill(pid, signal.SIGSTOP)
            info = os.waitid(os.P_PID, pid,
                             os.WSTOPPED | os.WEXITED | os.WNOWAIT)
            if info.si_code != os.CLD_STOPPED:
                end = t_stop               # it ended before it could stop
                break
            os.waitid(os.P_PID, pid, os.WSTOPPED | os.WNOHANG)
            cpu = last_cpu(pid)
            requests.write("%d\n" % (-1 if cpu is None else cpu))
            requests.flush()
            paces.append(float(replies.readline()))
            os.kill(pid, signal.SIGCONT)
            resumed = time.perf_counter()
            paused += resumed - t_stop
            since = 0.0
        if end is None:
            end = time.perf_counter()
        if period:
            since += end - resumed
        wall = end - t0 - paused
        os.close(pidfd)
        signal.pthread_sigmask(signal.SIG_BLOCK, TERM)
        _, status, usage = os.wait4(pid, 0)
        running[0] = 0
        signal.pthread_sigmask(signal.SIG_UNBLOCK, TERM)
        if stopping[0]:
            return 143
        sys.stdout.write("%d %r %r %d %d %r\n" % (
            os.waitstatus_to_exitcode(status), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            len(paces), sum(paces)))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
