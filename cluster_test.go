package distwalk_test

// Cluster-mode integration tests against real distwalkd processes: the
// test binary builds cmd/distwalkd once, spawns engines on loopback
// ports, and drives the full public surface (NewService + WithCluster)
// against them. The headline contract is the acceptance criterion of the
// cluster PR: for 2 and 4 out-of-process engines, every workload's
// results, cost counters, fault census and retry counters are
// bit-identical to the same-S in-process sharded run — cluster mode is a
// deployment choice with no observable footprint. The suite also covers
// the operational surface: graceful drain on SIGTERM, typed handshake
// rejections, flag-validation exit codes, and the debug/stats endpoints
// on both sides of the wire.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"distwalk"
)

// --- distwalkd process harness ---

// distwalkdBin builds cmd/distwalkd once per test binary. Under -race the
// daemon is race-instrumented too, so the CI cluster job's detector
// coverage spans both sides of every TCP session.
var distwalkdBin struct {
	once sync.Once
	path string
	err  error
}

func buildDistwalkd(t *testing.T) string {
	t.Helper()
	distwalkdBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "distwalkd-bin-")
		if err != nil {
			distwalkdBin.err = err
			return
		}
		bin := filepath.Join(dir, "distwalkd")
		args := []string{"build"}
		if raceEnabled {
			args = append(args, "-race")
		}
		args = append(args, "-o", bin, "distwalk/cmd/distwalkd")
		cmd := exec.Command("go", args...)
		if out, err := cmd.CombinedOutput(); err != nil {
			distwalkdBin.err = fmt.Errorf("go build distwalkd: %v\n%s", err, out)
			return
		}
		distwalkdBin.path = bin
	})
	if distwalkdBin.err != nil {
		t.Fatal(distwalkdBin.err)
	}
	return distwalkdBin.path
}

// syncBuffer collects the daemon's interleaved stdout/stderr; the
// process writes concurrently with the test's polling reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// engineProc is one running distwalkd under test control.
type engineProc struct {
	cmd     *exec.Cmd
	addr    string // resolved engine listen address
	debug   string // resolved -debug-addr address ("" without the flag)
	out     *syncBuffer
	done    chan struct{} // closed when the process exits
	exitErr error         // cmd.Wait result; read after <-done
}

// startEngine spawns distwalkd on a fresh loopback port (plus extra
// flags) and blocks until its "listening on" line reports the address.
func startEngine(t *testing.T, extra ...string) *engineProc {
	t.Helper()
	return startEngineAt(t, "127.0.0.1:0", extra...)
}

// startEngineAt is startEngine with an explicit -listen address — the
// chaos suite restarts killed engines on their old port so the service
// can redial them.
func startEngineAt(t *testing.T, listen string, extra ...string) *engineProc {
	t.Helper()
	bin := buildDistwalkd(t)
	args := append([]string{"-listen", listen}, extra...)
	e := &engineProc{
		cmd:  exec.Command(bin, args...),
		out:  &syncBuffer{},
		done: make(chan struct{}),
	}
	e.cmd.Stdout = e.out
	e.cmd.Stderr = e.out
	if err := e.cmd.Start(); err != nil {
		t.Fatalf("start distwalkd: %v", err)
	}
	go func() {
		e.exitErr = e.cmd.Wait()
		close(e.done)
	}()
	t.Cleanup(func() {
		select {
		case <-e.done:
		default:
			e.cmd.Process.Kill()
			<-e.done
		}
	})
	e.addr = e.waitLine(t, "distwalkd listening on ")
	for _, a := range extra {
		if a == "-debug-addr" {
			e.debug = e.waitLine(t, "distwalkd debug on ")
		}
	}
	return e
}

// waitLine polls the daemon's output for a line with the given prefix
// and returns the remainder (the resolved address lines).
func (e *engineProc) waitLine(t *testing.T, prefix string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		for _, ln := range strings.Split(e.out.String(), "\n") {
			if rest, ok := strings.CutPrefix(ln, prefix); ok {
				return strings.TrimSpace(rest)
			}
		}
		select {
		case <-e.done:
			t.Fatalf("distwalkd exited before printing %q: %v\n%s", prefix, e.exitErr, e.out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("distwalkd never printed %q\n%s", prefix, e.out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitExit blocks until the process exits and returns its Wait error.
func (e *engineProc) waitExit(t *testing.T, timeout time.Duration) error {
	t.Helper()
	select {
	case <-e.done:
		return e.exitErr
	case <-time.After(timeout):
		t.Fatalf("distwalkd did not exit within %v\n%s", timeout, e.out.String())
		return nil
	}
}

// startEngines spawns n plain engines and returns their addresses.
func startEngines(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = startEngine(t).addr
	}
	return addrs
}

// fetchEngineVars GETs a daemon's /debug/vars and returns the
// "distwalkd" expvar object (the wire.Metrics snapshot).
func fetchEngineVars(t *testing.T, debugAddr string) map[string]int64 {
	t.Helper()
	resp, err := http.Get("http://" + debugAddr + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	defer resp.Body.Close()
	var all map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatalf("decode /debug/vars: %v", err)
	}
	var m map[string]int64
	if err := json.Unmarshal(all["distwalkd"], &m); err != nil {
		t.Fatalf("decode distwalkd expvar: %v", err)
	}
	return m
}

// waitGoroutines polls for the goroutine count to fall back to the
// pre-test baseline — the goleak-style check that Service.Close in
// cluster mode leaks no reader/worker goroutines. The small allowance
// absorbs runtime background goroutines (finalizers, netpoll).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked after Close: %d, baseline %d\n%s", n, base, buf)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// --- bit-identity: cluster vs in-process sharded ---

func testClusterIdentity(t *testing.T, engines int) {
	if testing.Short() {
		t.Skip("cluster identity over TCP skipped in -short mode")
	}
	g, err := distwalk.Torus(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startEngines(t, engines)
	// Baseline after the daemons are up: their exec plumbing (Wait and
	// pipe-copy goroutines) lives until test cleanup and is not the
	// service's to clean.
	base := runtime.NumGoroutine()
	shd, err := distwalk.NewService(g, 42, distwalk.WithWorkers(2), distwalk.WithShards(engines))
	if err != nil {
		t.Fatal(err)
	}
	defer shd.Close()
	clu, err := distwalk.NewService(g, 42, distwalk.WithWorkers(2), distwalk.WithCluster(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	if got := clu.Cluster(); got != engines {
		t.Fatalf("Cluster() = %d, want %d", got, engines)
	}

	// Same concurrent matrix as the in-process shard identity suite:
	// every (workload, key) pair fires against both services at once, so
	// per-key determinism must survive worker scheduling on the client
	// AND session multiplexing on the engines.
	type outcome struct {
		name     string
		key      uint64
		shd, clu string
	}
	var (
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
	)
	for _, wl := range shardWorkloads() {
		for key := uint64(1); key <= 2; key++ {
			wg.Add(1)
			go func(wl shardWorkload, key uint64) {
				defer wg.Done()
				a, errA := wl.run(shd, key)
				b, errB := wl.run(clu, key)
				if errA != nil || errB != nil {
					t.Errorf("%s key %d: sharded err %v, cluster err %v", wl.name, key, errA, errB)
					return
				}
				mu.Lock()
				outs = append(outs, outcome{wl.name, key, a, b})
				mu.Unlock()
			}(wl, key)
		}
	}
	wg.Wait()
	for _, o := range outs {
		if o.shd != o.clu {
			t.Errorf("%s key %d diverged:\n  sharded(%d): %s\n  cluster(%d): %s",
				o.name, o.key, engines, o.shd, engines, o.clu)
		}
	}

	// The cluster service accounted its per-engine traffic, and a
	// fault-free run reports every engine healthy and no failover.
	st := clu.Stats()
	if len(st.Cluster.Engines) != engines {
		t.Fatalf("Stats().Cluster.Engines has %d entries, want %d", len(st.Cluster.Engines), engines)
	}
	for i, es := range st.Cluster.Engines {
		if es.Addr != addrs[i] || es.Shard != i {
			t.Errorf("Stats().Cluster.Engines[%d] = %q shard %d, want %q shard %d", i, es.Addr, es.Shard, addrs[i], i)
		}
		if es.Runs == 0 || es.Rounds == 0 || es.BytesOut == 0 || es.BytesIn == 0 {
			t.Errorf("Stats().Cluster.Engines[%d] recorded no traffic: %+v", i, es)
		}
	}
	for i, h := range st.Cluster.Health {
		if h != "healthy" {
			t.Errorf("Stats().Cluster.Health[%d] = %q, want healthy", i, h)
		}
	}
	if st.Cluster.Failovers != 0 {
		t.Errorf("fault-free cluster failed over: %+v", st.Cluster)
	}
	if shdSt := shd.Stats(); len(shdSt.Cluster.Engines) != 0 {
		t.Fatalf("in-process Stats().Cluster = %+v, want empty", shdSt.Cluster)
	}

	// Batched submissions run inside the same cluster session bracket as
	// per-key requests: full bursts are bit-identical to the same bursts
	// on in-process shards, and none of them failed over.
	wantBursts, _ := batchedBursts(t, g, distwalk.WithShards(engines))
	gotBursts, bst := batchedBursts(t, g, distwalk.WithCluster(addrs...))
	if gotBursts != wantBursts {
		t.Errorf("batched bursts diverged:\n  sharded(%d): %s\n  cluster(%d): %s", engines, wantBursts, engines, gotBursts)
	}
	if bst.Batches != 2 || bst.Cluster.Failovers != 0 || len(bst.Cluster.Engines) != engines || bst.Cluster.Engines[0].Runs == 0 {
		t.Errorf("batched cluster service: %d batches, cluster stats %+v; want 2 batches over the engines, no failover", bst.Batches, bst.Cluster)
	}

	// Close both services: every worker, reader and engine session must
	// be gone (the goleak-style part of the shutdown satellite).
	shd.Close()
	clu.Close()
	waitGoroutines(t, base)
}

func TestClusterIdentity2(t *testing.T) { testClusterIdentity(t, 2) }
func TestClusterIdentity4(t *testing.T) { testClusterIdentity(t, 4) }

// testClusterIdentityFaulty reruns the faulty shard-identity scenario
// with the shards living in distwalkd processes: identical results,
// identical FaultStats and loss errors, identical retry counters. Fault
// charging happens inside the remote engines here, so this pins that the
// delay -> crash -> loss charging order and the fault RNG stream survive
// the wire boundary bit for bit.
func testClusterIdentityFaulty(t *testing.T, engines int) {
	if testing.Short() {
		t.Skip("cluster identity over TCP skipped in -short mode")
	}
	g, err := distwalk.Torus(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	plan := &distwalk.FaultPlan{
		Seed:    77,
		Crashes: []distwalk.FaultCrash{{Node: 100, Round: 260}},
		Churn: []distwalk.FaultChurn{
			{Node: 37, From: 40, To: 160},
			{Node: 88, From: 90, To: 140},
		},
		LinkDrops: []distwalk.FaultLinkDrop{
			{From: 0, To: g.Neighbors(0)[0].To, Prob: 0.05},
			{From: 70, To: g.Neighbors(70)[1].To, Prob: 0.1},
		},
		LinkDelays: []distwalk.FaultLinkDelay{
			{From: 30, To: g.Neighbors(30)[0].To, Rounds: 1},
		},
	}
	build := func(opts ...distwalk.Option) *distwalk.Service {
		svc, err := distwalk.NewService(g, 42, append([]distwalk.Option{
			distwalk.WithWorkers(2),
			distwalk.WithFaultPlan(plan),
			distwalk.WithRetry(2),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	shd := build(distwalk.WithShards(engines))
	defer shd.Close()
	clu := build(distwalk.WithCluster(startEngines(t, engines)...))
	defer clu.Close()

	ctx := context.Background()
	workloads := []shardWorkload{
		{"SingleRandomWalk", func(svc *distwalk.Service, key uint64) (string, error) {
			res, err := svc.SingleRandomWalk(ctx, key, 0, 768)
			if err != nil {
				return "err=" + err.Error(), nil
			}
			return fmt.Sprintf("dest=%d len=%d cost=%+v", res.Destination, res.Length, res.Cost), nil
		}},
		{"ManyRandomWalks", func(svc *distwalk.Service, key uint64) (string, error) {
			sources := make([]distwalk.NodeID, 6)
			for i := range sources {
				sources[i] = distwalk.NodeID(i * 19 % svc.Graph().N())
			}
			res, err := svc.ManyRandomWalks(ctx, key, sources, 512)
			if err != nil {
				return "err=" + err.Error(), nil
			}
			return fmt.Sprintf("dests=%v cost=%+v", res.Destinations, res.Cost), nil
		}},
		{"RandomSpanningTree", func(svc *distwalk.Service, key uint64) (string, error) {
			res, err := svc.RandomSpanningTree(ctx, key, 0)
			if err != nil {
				return "err=" + err.Error(), nil
			}
			return fmt.Sprintf("parents=%v cost=%+v", res.Parent, res.Cost), nil
		}},
		{"EstimateMixingTime", func(svc *distwalk.Service, key uint64) (string, error) {
			est, err := svc.EstimateMixingTime(ctx, key, 0, distwalk.WithMixingOptions(distwalk.MixingOptions{Samples: 16, MaxEll: 128}))
			if err != nil {
				return "err=" + err.Error(), nil
			}
			return fmt.Sprintf("tau=%d cost=%+v", est.Tau, est.Cost), nil
		}},
	}

	sawFault := false
	for _, wl := range workloads {
		for key := uint64(1); key <= 3; key++ {
			a, _ := wl.run(shd, key)
			b, _ := wl.run(clu, key)
			if a != b {
				t.Errorf("%s key %d diverged under faults:\n  sharded(%d): %s\n  cluster(%d): %s",
					wl.name, key, engines, a, engines, b)
			}
			if strings.Contains(a, "err=") || strings.Contains(a, "LinkDropped:") && !strings.Contains(a, "LinkDropped:0") {
				sawFault = true
			}
		}
	}
	// Retry counters are per-key deterministic, so the totals must be
	// transport-invariant too — in-process barrier or TCP sessions.
	if a, b := shd.Stats().Retry, clu.Stats().Retry; a != b {
		t.Errorf("retry counters diverged: sharded %+v, cluster %+v", a, b)
	}
	if shd.Stats().Retry.Faults == 0 && !sawFault {
		t.Error("fault plan left no observable trace; the scenario needs retuning")
	}
}

func TestClusterIdentityFaulty2(t *testing.T) { testClusterIdentityFaulty(t, 2) }
func TestClusterIdentityFaulty4(t *testing.T) { testClusterIdentityFaulty(t, 4) }

// --- graceful shutdown ---

// TestClusterDrainOnSignal covers the SIGTERM drain end to end: an
// engine serving a request mid-run gets the signal, finishes the
// in-flight run (the client keeps receiving rounds during the drain),
// refuses further runs, and exits 0 with the drain lines on stdout.
// Requests span multiple engine runs, so the caught request either
// completes or fails with the typed cluster error — never hangs, never
// sees a torn run.
func TestClusterDrainOnSignal(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster drain over TCP skipped in -short mode")
	}
	g, err := distwalk.Torus(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	eng := startEngine(t, "-debug-addr", "127.0.0.1:0")
	svc, err := distwalk.NewService(g, 42, distwalk.WithWorkers(1), distwalk.WithCluster(eng.addr))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	errCh := make(chan error, 1)
	go func() {
		_, err := svc.SingleRandomWalk(context.Background(), 1, 0, 300_000)
		errCh <- err
	}()

	// Wait until the engine is demonstrably mid-run, then signal.
	deadline := time.Now().Add(15 * time.Second)
	for {
		m := fetchEngineVars(t, eng.debug)
		if m["runs"] >= 1 && m["rounds"] >= 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never reached mid-run: %v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := eng.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The caught request drains its current run and then either finishes
	// or fails typed on its next run's first frame.
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, distwalk.ErrClusterEngine) {
			t.Fatalf("request failed untyped during drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("request hung through the drain")
	}

	// The daemon drained and exited cleanly: exit code 0, drain lines
	// printed, no force-close.
	if err := eng.waitExit(t, 30*time.Second); err != nil {
		t.Fatalf("distwalkd exited non-zero after drain: %v\n%s", err, eng.out.String())
	}
	out := eng.out.String()
	for _, want := range []string{"distwalkd draining", "distwalkd stopped"} {
		if !strings.Contains(out, want) {
			t.Errorf("daemon output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "force close") {
		t.Errorf("drain escalated to force close:\n%s", out)
	}

	// The engine is gone; fresh requests fail with the typed error.
	if _, err := svc.SingleRandomWalk(context.Background(), 2, 0, 64); !errors.Is(err, distwalk.ErrClusterEngine) {
		t.Fatalf("request after engine shutdown = %v, want ErrClusterEngine", err)
	}
	// And Close still tears everything down without leaking.
	base := runtime.NumGoroutine()
	svc.Close()
	waitGoroutines(t, base)
}

// --- handshake and configuration failures ---

func TestClusterHandshakeErrors(t *testing.T) {
	g, err := distwalk.Torus(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	other, err := distwalk.RandomRegular(48, 4, 9)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("PinnedShardMismatch", func(t *testing.T) {
		// An engine pinned to shard 1 refuses the single-engine plan's
		// shard 0 handshake with a typed rejection.
		eng := startEngine(t, "-shard", "1")
		_, err := distwalk.NewService(g, 42, distwalk.WithWorkers(1), distwalk.WithCluster(eng.addr))
		if !errors.Is(err, distwalk.ErrClusterRejected) {
			t.Fatalf("NewService against pinned engine = %v, want ErrClusterRejected", err)
		}
	})

	t.Run("TwoGraphsOneEngine", func(t *testing.T) {
		// An engine keeps no graph across sessions: two services over
		// different graphs hold sessions with it at once, and each serves
		// requests bit-identical to its in-process twin.
		eng := startEngine(t)
		graphs := []*distwalk.Graph{g, other}
		clus := make([]*distwalk.Service, len(graphs))
		for i, gr := range graphs {
			clu, err := distwalk.NewService(gr, 42, distwalk.WithWorkers(1), distwalk.WithCluster(eng.addr))
			if err != nil {
				t.Fatalf("%d-node graph: %v", gr.N(), err)
			}
			defer clu.Close()
			clus[i] = clu
		}
		for i, gr := range graphs {
			local, err := distwalk.NewService(gr, 42, distwalk.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			defer local.Close()
			got, err := clus[i].SingleRandomWalk(context.Background(), 1, 0, 64)
			if err != nil {
				t.Fatalf("%d-node graph: %v", gr.N(), err)
			}
			want, err := local.SingleRandomWalk(context.Background(), 1, 0, 64)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d-node graph: cluster dest=%d %+v, in-process dest=%d %+v",
					gr.N(), got.Destination, got.Cost, want.Destination, want.Cost)
			}
		}
	})

	t.Run("TooManyEngines", func(t *testing.T) {
		// Plan validation precedes dialing: more engines than nodes is a
		// config error even with unreachable addresses.
		small, err := distwalk.Cycle(4)
		if err != nil {
			t.Fatal(err)
		}
		fake := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
		_, err = distwalk.NewService(small, 1, distwalk.WithCluster(fake...))
		if !errors.Is(err, distwalk.ErrClusterConfig) {
			t.Fatalf("NewService with 5 engines for 4 nodes = %v, want ErrClusterConfig", err)
		}
	})

	t.Run("DialFailure", func(t *testing.T) {
		_, err := distwalk.NewService(g, 42, distwalk.WithCluster("127.0.0.1:1"))
		if err == nil {
			t.Fatal("NewService against a dead address succeeded")
		}
		if !strings.Contains(err.Error(), "cluster engine 0") {
			t.Fatalf("dial error does not name the engine: %v", err)
		}
	})
}

// TestDistwalkdExitCodes pins the daemon's flag-validation contract:
// usage errors exit 2, listen failures exit 1, both with a typed
// "distwalkd:" line on stderr.
func TestDistwalkdExitCodes(t *testing.T) {
	bin := buildDistwalkd(t)
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"ShardOutOfRange", []string{"-shard", "-2"}, 2},
		{"PositionalArgs", []string{"stray"}, 2},
		{"UnknownFlag", []string{"-nope"}, 2},
		{"BadListenAddr", []string{"-listen", "256.256.256.256:0"}, 1},
		{"BadDebugAddr", []string{"-listen", "127.0.0.1:0", "-debug-addr", "256.256.256.256:0"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("distwalkd %v: err %v, want exit error\n%s", tc.args, err, out)
			}
			if got := ee.ExitCode(); got != tc.code {
				t.Fatalf("distwalkd %v exited %d, want %d\n%s", tc.args, got, tc.code, out)
			}
			if !strings.Contains(string(out), "distwalkd:") {
				t.Fatalf("distwalkd %v stderr missing typed prefix:\n%s", tc.args, out)
			}
		})
	}
}

// --- observability: Stats().Cluster and /metrics on the client, expvar on the engine ---

// TestClusterMetricsBeforeFirstRequest: a cluster service that has served
// nothing already names every engine in Stats and on /metrics. An engine
// that dies before the first request completes is exactly the one an
// operator needs the health gauge for.
func TestClusterMetricsBeforeFirstRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster metrics over TCP skipped in -short mode")
	}
	g, err := distwalk.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startEngines(t, 2)
	svc, err := distwalk.NewService(g, 42, distwalk.WithWorkers(1), distwalk.WithCluster(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	st := svc.Stats()
	if len(st.Cluster.Engines) != svc.Cluster() {
		t.Fatalf("Stats().Cluster.Engines has %d entries before any request, want %d", len(st.Cluster.Engines), svc.Cluster())
	}
	for i, es := range st.Cluster.Engines {
		// The handshake's bytes count as they cross the wire; no run has.
		want := distwalk.ClusterEngineStats{Addr: addrs[i], Shard: i, BytesOut: es.BytesOut, BytesIn: es.BytesIn}
		if es != want || es.BytesOut == 0 || es.BytesIn == 0 {
			t.Errorf("Stats().Cluster.Engines[%d] = %+v, want handshake bytes only", i, es)
		}
	}

	rr := httptest.NewRecorder()
	svc.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for i, addr := range addrs {
		want := fmt.Sprintf("distwalk_cluster_engine_healthy{engine=\"%d\",addr=%q} 1\n", i, addr)
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(body, "distwalk_cluster_failovers_total 0\n") {
		t.Error("exposition missing distwalk_cluster_failovers_total 0")
	}
	families := 0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE distwalk_cluster_") {
			families++
		}
	}
	if families != 6 {
		t.Errorf("exposition has %d cluster families, want 6 (runs, rounds, msgs, bytes, healthy, failovers)", families)
	}
}

// TestClusterSessionsOwnNoGoroutines: an engine session is a connection,
// not a connection plus a goroutine. After construction and one request,
// a two-worker service over four engines (eight sessions) runs its two
// workers and nothing else.
func TestClusterSessionsOwnNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sessions over TCP skipped in -short mode")
	}
	g, err := distwalk.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startEngines(t, 4)
	base := runtime.NumGoroutine()
	svc, err := distwalk.NewService(g, 42, distwalk.WithWorkers(2), distwalk.WithCluster(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.SingleRandomWalk(context.Background(), 1, 0, 256); err != nil {
		t.Fatal(err)
	}
	// Allow the two workers plus two for runtime background goroutines.
	if n := runtime.NumGoroutine(); n > base+2+2 {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%d goroutines with 8 idle sessions, baseline %d + 2 workers + 2\n%s", n, base, buf)
	}
}

func TestClusterStatsAndDebug(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster debug endpoints over TCP skipped in -short mode")
	}
	g, err := distwalk.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	eng := startEngine(t, "-debug-addr", "127.0.0.1:0")
	svc, err := distwalk.NewService(g, 42, distwalk.WithWorkers(1), distwalk.WithCluster(eng.addr))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.SingleRandomWalk(context.Background(), 1, 0, 512); err != nil {
		t.Fatal(err)
	}

	// Client side: per-engine traffic and health in Stats().Cluster.
	st := svc.Stats()
	if len(st.Cluster.Engines) != 1 || len(st.Cluster.Health) != 1 {
		t.Fatalf("Stats().Cluster = %+v, want one engine", st.Cluster)
	}
	es := st.Cluster.Engines[0]
	if es.Addr != eng.addr || es.Runs == 0 || es.Rounds == 0 || es.MsgsOut == 0 || es.BytesIn == 0 {
		t.Fatalf("engine stats incomplete: %+v", es)
	}
	if st.Cluster.Health[0] != "healthy" {
		t.Fatalf("Stats().Cluster.Health = %v, want healthy", st.Cluster.Health)
	}

	// Server side: the daemon's -debug-addr exports wire.Metrics under
	// the "distwalkd" expvar.
	m := fetchEngineVars(t, eng.debug)
	for _, key := range []string{"sessions", "runs", "rounds", "msgs_in", "msgs_out", "bytes_in", "bytes_out"} {
		if m[key] == 0 {
			t.Errorf("engine expvar %q is zero: %v", key, m)
		}
	}
	if m["active_sessions"] != 1 {
		t.Errorf("engine active_sessions = %d, want 1 (one worker)", m["active_sessions"])
	}
}
