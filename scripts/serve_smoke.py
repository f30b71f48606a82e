#!/usr/bin/env python3
"""Kill -9 smoke for the campaign service (`clb serve`, docs/SERVICE.md).

End-to-end over real processes and real HTTP, the durability story the
service promises: an accepted sweep survives losing the server.

  1. Reference: `clb campaign run smoke --canonical` writes the canonical
     manifest an undisturbed one-shot run produces.
  2. Start the daemon with CLB_CHAOS_KILL_AFTER_JOBS=N (the same
     supervise.hpp contract the chaos harness uses): the process
     _Exit(137)s mid-sweep without destructors, tearing in-flight cache
     writes exactly like a real SIGKILL. A watchdog sends an actual
     SIGKILL if the chaos exit somehow does not land.
  3. Submit the smoke campaign over HTTP (POST /v1/sweeps) and require a
     202 accepted — the accept is durable before the response is sent.
  4. Wait for the server to die mid-run, then restart it on the same
     state dir with a clean environment. Startup fsck repairs the torn
     cache debris and the ledger re-enqueues the sweep.
  5. Poll /v1/sweeps/<key> until complete, fetch /v1/sweeps/<key>/manifest,
     and require it byte-equal to the reference manifest.
  6. SIGTERM the server and require a graceful exit 0 (drain contract).
  7. Require that no `*.tmp` or `*.intent` file (atomic-write debris) is
     left anywhere under the state dir.

Server stdout/stderr land in --workdir (serve1.log / serve2.log) so CI can
upload them on failure.

Usage:
    scripts/serve_smoke.py --clb build/tools/clb [--workdir DIR]
        [--kill-after-jobs 7] [--timeout 120]
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

KILLED_EXIT = 137  # the _Exit status the chaos contract promises


def clean_env(extra=None):
    """The caller's environment without any CLB_CHAOS_* leakage."""
    env = os.environ.copy()
    for k in list(env):
        if k.startswith("CLB_CHAOS_"):
            del env[k]
    if extra:
        env.update(extra)
    return env


def wait_port(state_dir, proc, timeout):
    """The daemon's ephemeral port, read from <state-dir>/port."""
    port_file = os.path.join(state_dir, "port")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"server exited {proc.returncode} before writing {port_file}")
        try:
            with open(port_file) as f:
                text = f.read().strip()
            if text:
                port = int(text)
                # The file exists before the accept loop starts; probe.
                try:
                    http(port, "GET", "/v1/ping")
                    return port
                except (urllib.error.URLError, ConnectionError, OSError):
                    pass
        except FileNotFoundError:
            pass
        time.sleep(0.05)
    raise RuntimeError(f"server never became reachable via {port_file}")


def http(port, method, path, body=None):
    """One request against the daemon; returns (status, parsed body)."""
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method=method)
    try:
        with urllib.request.urlopen(req, timeout=10) as res:
            return res.status, json.loads(res.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode() or "{}")


def fetch_manifest(port, key):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/sweeps/{key}/manifest")
    with urllib.request.urlopen(req, timeout=10) as res:
        return res.read()


def start_server(clb, state_dir, log_path, env):
    log = open(log_path, "w")
    proc = subprocess.Popen(
        [clb, "serve", "--state-dir", state_dir, "--port", "0",
         "--pool", "2", "--orchestrators", "1"],
        stdout=log, stderr=subprocess.STDOUT, env=env)
    proc.log = log
    return proc


def fail(msg):
    print(f"serve-smoke: FAIL: {msg}", file=sys.stderr)
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clb", required=True, help="path to the clb binary")
    parser.add_argument("--workdir", default="serve-smoke-work")
    parser.add_argument("--kill-after-jobs", type=int, default=7,
                        help="chaos kill point inside the 30-job smoke sweep")
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args()

    clb = os.path.abspath(args.clb)
    work = os.path.abspath(args.workdir)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    state_dir = os.path.join(work, "state")
    os.makedirs(state_dir)

    # 1. Undisturbed reference manifest (no cache: pure cold compute).
    ref_path = os.path.join(work, "reference.json")
    rc = subprocess.run(
        [clb, "campaign", "run", "smoke", "--canonical", "--cache-dir", "",
         "--manifest", ref_path], env=clean_env(),
        stdout=subprocess.DEVNULL).returncode
    if rc != 0:
        return fail(f"reference `clb campaign run smoke` exited {rc}")
    with open(ref_path, "rb") as f:
        reference = f.read()

    # 2. Doomed server: chaos kill after N supervised jobs.
    doomed = start_server(
        clb, state_dir, os.path.join(work, "serve1.log"),
        clean_env({"CLB_CHAOS_KILL_AFTER_JOBS": str(args.kill_after_jobs)}))
    try:
        port = wait_port(state_dir, doomed, args.timeout)

        # 3. Submit over HTTP; the accept must be durable before the reply.
        # With an early kill point the daemon can die while this response
        # is in flight — the sweep is already persisted (jobs only run
        # after the accept landed on disk), so a torn connection here is
        # tolerated and the key is recovered from the restarted ledger.
        key = None
        try:
            status, body = http(port, "POST", "/v1/sweeps",
                                {"spec": "smoke", "client": "ci"})
            if status != 202 or body.get("outcome") != "accepted":
                return fail(
                    f"submit: expected 202 accepted, got {status} {body}")
            key = body["sweep"]
        except (urllib.error.URLError, ConnectionError, OSError) as err:
            print(f"serve-smoke: note: submit response lost to the kill "
                  f"({err}); recovering the sweep key after restart")

        # 4. The chaos kill lands mid-sweep; a watchdog real-SIGKILLs if not.
        deadline = time.monotonic() + args.timeout
        while doomed.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        if doomed.poll() is None:
            doomed.kill()
            doomed.wait()
            print("serve-smoke: note: chaos exit never fired; "
                  "sent a real SIGKILL instead")
        elif doomed.returncode != KILLED_EXIT:
            return fail(
                f"doomed server exited {doomed.returncode}, "
                f"expected the chaos kill ({KILLED_EXIT})")
    finally:
        if doomed.poll() is None:
            doomed.kill()
            doomed.wait()
        doomed.log.close()

    # 5. Restart clean on the same state dir: fsck + ledger resume.
    server = start_server(clb, state_dir, os.path.join(work, "serve2.log"),
                          clean_env())
    try:
        port = wait_port(state_dir, server, args.timeout)
        if key is None:
            # The submit reply was torn; the accepted sweep must still be
            # in the restarted ledger — that IS the durability contract.
            status, body = http(port, "GET", "/v1/sweeps")
            sweeps = body.get("sweeps", [])
            if status != 200 or len(sweeps) != 1:
                return fail(
                    f"accepted sweep lost across the kill: {status} {body}")
            key = sweeps[0]["sweep"]
            print(f"serve-smoke: recovered sweep {key} from the ledger")
        state = None
        deadline = time.monotonic() + args.timeout
        while time.monotonic() < deadline:
            status, body = http(port, "GET", f"/v1/sweeps/{key}")
            if status != 200:
                return fail(f"status poll: {status} {body}")
            state = body.get("state")
            if state in ("complete", "failed"):
                break
            time.sleep(0.2)
        if state != "complete":
            return fail(f"resumed sweep never completed (state: {state})")
        if not body.get("all_hold"):
            return fail(f"resumed sweep completed degraded: {body}")

        resumed = fetch_manifest(port, key)
        if resumed != reference:
            return fail(
                "resumed manifest differs from the uninterrupted reference "
                f"({len(resumed)} vs {len(reference)} bytes)")
        print(f"serve-smoke: resumed manifest byte-identical to reference "
              f"({len(resumed)} bytes, sweep {key})")

        # 6. Graceful drain: SIGTERM -> exit 0.
        server.send_signal(signal.SIGTERM)
        try:
            rc = server.wait(timeout=args.timeout)
        except subprocess.TimeoutExpired:
            server.kill()
            return fail("server did not drain after SIGTERM")
        if rc != 0:
            return fail(f"drained server exited {rc}, expected 0")

        # 7. Every file the server wrote went through the atomic-file
        # protocol; once it has exited, none of its debris may remain.
        debris = sorted(
            os.path.relpath(os.path.join(root, name), state_dir)
            for root, _, names in os.walk(state_dir) for name in names
            if name.endswith((".tmp", ".intent")))
        if debris:
            return fail(f"write debris left in the state dir: {debris}")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.log.close()

    print("serve-smoke: PASS (kill -9 mid-run, restart, byte-equal resume, "
          "graceful drain, no write debris)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
