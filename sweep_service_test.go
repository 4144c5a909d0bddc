// Fault-injection test of the sweep service: coordinator plus a worker
// fleet, exercised exactly the way an operator would run it — except one
// worker is SIGKILLed while it provably holds a lease. The merged output
// must still be byte-identical to a single-process run, the lease expiry
// and requeue counters must show the recovery actually happened, and a
// repeat sweep must be served from the coordinator-hosted result cache.
package repro_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/sweepd"
)

// reducedFlags sizes the sweeps for CI without changing their structure.
var reducedFlags = []string{"-simtime", "100", "-reps", "2"}

// buildWsnenergy compiles the real binary. `go run` would put a wrapper
// process between us and the worker, so SIGKILL on the child would orphan
// the actual victim instead of killing it.
func buildWsnenergy(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "wsnenergy")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wsnenergy")
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building wsnenergy: %v\n%s", err, out)
	}
	return bin
}

// startCoordinator launches `wsnenergy serve` on an ephemeral port and
// returns the announced base URL.
func startCoordinator(t *testing.T, bin string, extraArgs ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"serve", "-listen", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("coordinator announced nothing: %v", err)
	}
	url := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "listening on "))
	if !strings.HasPrefix(url, "http://") {
		t.Fatalf("unexpected coordinator announcement: %q", line)
	}
	return cmd, url
}

// startWorker launches `wsnenergy work` joined to the coordinator.
func startWorker(t *testing.T, bin, url, name string, extraArgs ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{"work", "-join", url, "-name", name}, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	return cmd
}

// runBinary runs the built binary and returns stdout.
func runBinary(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	return stdout.String()
}

// holdsLease reports whether the named worker currently holds a lease.
func holdsLease(st sweepd.CoordinatorStatus, worker string) bool {
	for _, l := range st.Leases {
		if l.Worker == worker {
			return true
		}
	}
	return false
}

// TestSweepServiceFaultInjection is the acceptance test of the sweep
// service (run in CI as its own job):
//
//  1. a coordinator with a 2 s lease TTL and one slow worker start; a
//     Table 4 sweep is submitted;
//  2. the worker is SIGSTOPped, the coordinator's status is consulted, and
//     only if the frozen worker provably holds a lease is it SIGKILLed —
//     an airtight mid-lease crash (otherwise it is resumed and probed
//     again);
//  3. two replacement workers join; the coordinator expires the dead
//     worker's lease, requeues, and the sweep completes;
//  4. the rendered table must be byte-identical to the single-process run,
//     and the coordinator must report the expiry and requeue;
//  5. a Figure 5 sweep then runs twice on the surviving fleet; the repeat
//     must be served from the coordinator-hosted remote result cache.
func TestSweepServiceFaultInjection(t *testing.T) {
	bin := buildWsnenergy(t)
	singleTable4 := runBinary(t, bin, append([]string{"-experiment", "table4", "-format", "csv"}, reducedFlags...)...)
	singleFig5 := runBinary(t, bin, append([]string{"-experiment", "fig5", "-format", "csv"}, reducedFlags...)...)

	_, url := startCoordinator(t, bin, "-lease", "2s", "-partitions", "6")
	client, err := sweepd.NewClient(url, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The victim runs alone and single-threaded so it is guaranteed to
	// still be mid-lease when we come for it.
	victim := startWorker(t, bin, url, "victim", "-parallel", "1")

	sweepArgs := func(experiment string) []string {
		return append([]string{"sweep", "-join", url, "-experiment", experiment,
			"-format", "csv", "-poll", "100ms", "-timeout", "5m"}, reducedFlags...)
	}
	sweepCmd := exec.Command(bin, sweepArgs("table4")...)
	var sweepOut bytes.Buffer
	sweepCmd.Stdout = &sweepOut
	sweepCmd.Stderr = os.Stderr
	if err := sweepCmd.Start(); err != nil {
		t.Fatal(err)
	}
	sweepDone := make(chan error, 1)
	go func() { sweepDone <- sweepCmd.Wait() }()

	// Freeze the victim, check it holds a lease, and only then kill it.
	// SIGSTOP makes the check race-free: a frozen worker cannot submit
	// results between the status read and the SIGKILL.
	pid := victim.Process.Pid
	killed := false
	for i := 0; i < 500 && !killed; i++ {
		select {
		case err := <-sweepDone:
			t.Fatalf("sweep finished before the victim could be killed mid-lease (err=%v)", err)
		default:
		}
		if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
			t.Fatalf("SIGSTOP: %v", err)
		}
		st, err := client.Status()
		if err == nil && holdsLease(st, "victim") {
			if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
				t.Fatalf("SIGKILL: %v", err)
			}
			killed = true
			break
		}
		if err := syscall.Kill(pid, syscall.SIGCONT); err != nil {
			t.Fatalf("SIGCONT: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !killed {
		t.Fatal("never caught the victim holding a lease")
	}
	t.Log("victim killed while holding a lease")

	// Replacements join; the coordinator must expire the dead lease,
	// requeue the partition, and finish the sweep.
	startWorker(t, bin, url, "w2", "-parallel", "2")
	startWorker(t, bin, url, "w3", "-parallel", "2")
	if err := <-sweepDone; err != nil {
		t.Fatalf("sweep failed after worker loss: %v", err)
	}
	if got := sweepOut.String(); got != singleTable4 {
		t.Fatalf("recovered Table 4 differs from single-process run:\n--- single ---\n%s\n--- service ---\n%s", singleTable4, got)
	}
	st, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExpiredLeases < 1 {
		t.Fatalf("no lease expiry recorded after SIGKILL: %+v", st)
	}
	if st.Requeues < 1 {
		t.Fatalf("no requeue recorded after SIGKILL: %+v", st)
	}
	t.Logf("recovery stats: %d expired leases, %d requeues, %d replans",
		st.ExpiredLeases, st.Requeues, st.Replans)

	// Figure 5 on the surviving fleet, twice: identical bytes both times,
	// and the repeat must hit the coordinator's remote result cache.
	first := runBinary(t, bin, sweepArgs("fig5")...)
	if first != singleFig5 {
		t.Fatalf("service Figure 5 differs from single-process run:\n--- single ---\n%s\n--- service ---\n%s", singleFig5, first)
	}
	hitsBefore := cacheHits(t, url)
	again := runBinary(t, bin, sweepArgs("fig5")...)
	if again != singleFig5 {
		t.Fatalf("repeat Figure 5 differs:\n--- single ---\n%s\n--- service ---\n%s", singleFig5, again)
	}
	if hitsAfter := cacheHits(t, url); hitsAfter <= hitsBefore {
		t.Fatalf("repeat sweep did not hit the remote cache (hits %d -> %d)", hitsBefore, hitsAfter)
	}
}

// TestSweepServiceCoordinatorCrashRecovery is the durability acceptance
// test: the coordinator itself is SIGKILLed mid-sweep and a replacement
// process must recover the sweep from the write-ahead journal in
// -state-dir:
//
//  1. a durable coordinator and one single-threaded worker start; a
//     Table 4 sweep is submitted with -detach, which prints the sweep id
//     used to re-attach after the crash;
//  2. the worker is SIGSTOPped and, once the sweep is provably mid-flight
//     (some partitions accepted, some still queued), SIGTERMed — the
//     graceful-drain path: it finishes its current lease, submits, and
//     exits, so the journal and the shared cache hold exactly the
//     accepted scenarios;
//  3. the coordinator is SIGKILLed — no clean-shutdown record, the
//     journal tail is whatever fsync left behind;
//  4. a replacement coordinator on the same -state-dir must replay to
//     exactly the pre-crash progress, re-plan only the missing
//     scenarios, and report ready;
//  5. a relief worker joins, `sweep -attach` waits the recovered sweep
//     out, and the rendered table must be byte-identical to the
//     single-process run — with the cache hit counter still at zero,
//     proving no completed scenario was ever looked up again, let alone
//     re-executed.
func TestSweepServiceCoordinatorCrashRecovery(t *testing.T) {
	bin := buildWsnenergy(t)
	golden := runBinary(t, bin, append([]string{"-experiment", "table4", "-format", "csv"}, reducedFlags...)...)

	stateDir := filepath.Join(t.TempDir(), "state")
	serveArgs := []string{"-state-dir", stateDir, "-lease", "2s", "-partitions", "6"}
	coord, url := startCoordinator(t, bin, serveArgs...)
	client, err := sweepd.NewClient(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, client)

	worker := startWorker(t, bin, url, "first-shift", "-parallel", "1")
	submitArgs := append([]string{"sweep", "-join", url, "-experiment", "table4", "-detach"}, reducedFlags...)
	id := strings.TrimSpace(runBinary(t, bin, submitArgs...))
	if id == "" {
		t.Fatal("detached submit printed no sweep id")
	}

	// Freeze the worker so progress cannot change under the status read,
	// and ask for its graceful drain only when the sweep is provably
	// mid-flight: completed partitions in the journal, untouched ones
	// still queued. The SIGTERM is delivered on SIGCONT; the worker
	// finishes its current lease, submits it, and exits, and the queued
	// partitions guarantee the sweep stays unfinished.
	pid := worker.Process.Pid
	drained := false
	for i := 0; i < 500 && !drained; i++ {
		if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
			t.Fatalf("SIGSTOP: %v", err)
		}
		st, err := client.SweepStatus(id)
		if err == nil && st.Completed > 0 && st.Queued > 0 {
			if err := syscall.Kill(pid, syscall.SIGTERM); err != nil {
				t.Fatalf("SIGTERM: %v", err)
			}
			drained = true
		}
		if err := syscall.Kill(pid, syscall.SIGCONT); err != nil {
			t.Fatalf("SIGCONT: %v", err)
		}
		if !drained {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !drained {
		t.Fatal("never caught the sweep mid-flight")
	}
	_ = worker.Wait()

	st, err := client.SweepStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Leased != 0 || st.Completed == 0 || st.Completed >= st.Total {
		t.Fatalf("unexpected pre-crash state after worker drain: %+v", st)
	}
	progress := st.Completed
	t.Logf("crashing coordinator at %d/%d completed scenarios", progress, st.Total)
	if err := coord.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL coordinator: %v", err)
	}
	_ = coord.Wait()

	// The replacement coordinator replays the journal from the same
	// state directory: exactly the pre-crash progress, only the missing
	// scenarios re-planned (a requeue it must report), nothing leased.
	_, url2 := startCoordinator(t, bin, serveArgs...)
	client2, err := sweepd.NewClient(url2, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, client2)
	st, err = client2.SweepStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != sweepd.StateRunning {
		t.Fatalf("recovered sweep state = %q, want %q: %+v", st.State, sweepd.StateRunning, st)
	}
	if st.Completed != progress {
		t.Fatalf("replayed progress = %d scenarios, want exactly %d", st.Completed, progress)
	}
	if st.Queued == 0 {
		t.Fatalf("recovery queued nothing for the missing scenarios: %+v", st)
	}
	fleet, err := client2.Status()
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Requeues < 1 {
		t.Fatalf("recovery reported no requeue for the missing scenarios: %+v", fleet)
	}
	// The file-backed cache survived the crash holding exactly the
	// accepted scenarios. The hit counter must stay at zero from here on:
	// recovery re-plans only missing indices, so no completed scenario is
	// ever looked up again — let alone re-executed.
	if hits := cacheHits(t, url2); hits != 0 {
		t.Fatalf("restarted coordinator cache already reports %d hits", hits)
	}

	startWorker(t, bin, url2, "relief", "-parallel", "2")
	attachArgs := append([]string{"sweep", "-join", url2, "-experiment", "table4",
		"-format", "csv", "-poll", "100ms", "-timeout", "5m", "-attach", id}, reducedFlags...)
	if got := runBinary(t, bin, attachArgs...); got != golden {
		t.Fatalf("recovered Table 4 differs from single-process run:\n--- single ---\n%s\n--- recovered ---\n%s", golden, got)
	}
	if hits := cacheHits(t, url2); hits != 0 {
		t.Fatalf("completed scenarios were re-looked-up after recovery: %d cache hits", hits)
	}
}

// waitReady polls /v1/readyz until the coordinator finishes journal replay.
func waitReady(t *testing.T, client *sweepd.Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !client.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cacheHits reads the server-side hit counter of the coordinator-hosted
// result cache (the raw /stats endpoint; the client-side backend's Stats
// reports its own local hits instead).
func cacheHits(t *testing.T, url string) uint64 {
	t.Helper()
	resp, err := http.Get(url + sweepd.CachePath + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Entries int    `json:"entries"`
		Hits    uint64 `json:"hits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Entries == 0 {
		t.Fatal("coordinator cache is empty after a completed sweep")
	}
	return stats.Hits
}
