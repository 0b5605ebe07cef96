package distwalk_test

// Chaos suite for cluster failure semantics: real distwalkd processes are
// SIGKILLed and SIGSTOPped mid-run and between requests, while the
// Service must (a) surface typed ErrClusterEngine failures within the
// request's deadline instead of hanging, never re-running the request in
// process, and (b) redial with the same handshake once a killed engine
// returns on its old port, bit-identical to WithShards(S) again. CI runs
// it under -race in the cluster job's chaos step.

import (
	"context"
	"errors"
	"syscall"
	"testing"
	"time"

	"distwalk"
)

// waitMidRun polls an engine's expvars until it has served the given
// number of rounds, so a kill lands mid-protocol, not between requests.
func waitMidRun(t *testing.T, eng *engineProc, rounds int64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		m := fetchEngineVars(t, eng.debug)
		if m["runs"] >= 1 && m["rounds"] >= rounds {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never reached mid-run: %v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterChaosKillMidRunFailsTyped: a SIGKILLed engine mid-run
// surfaces a typed ErrClusterEngine/ErrEngineLost at once (EOF or reset,
// no deadline needed), the engine reads "lost", and follow-up requests
// fail typed on the refused redial.
func TestClusterChaosKillMidRunFailsTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos over TCP skipped in -short mode")
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
	waitMidRun(t, eng, 200)
	if err := eng.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("request against a SIGKILLed engine succeeded")
		}
		if !errors.Is(err, distwalk.ErrClusterEngine) {
			t.Fatalf("mid-run kill surfaced untyped: %v", err)
		}
		if !errors.Is(err, distwalk.ErrEngineLost) {
			t.Fatalf("mid-run kill not classified as engine loss: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("request hung after SIGKILL")
	}

	// The loss was recorded: the engine is no longer healthy.
	st := svc.Stats()
	if len(st.Cluster.Health) != 1 || st.Cluster.Health[0] != "lost" {
		t.Fatalf("killed engine not reported lost: %+v", st.Cluster)
	}
	// Follow-up requests keep failing typed on the refused redial.
	if _, err := svc.SingleRandomWalk(context.Background(), 2, 0, 64); !errors.Is(err, distwalk.ErrClusterEngine) {
		t.Fatalf("request after kill = %v, want ErrClusterEngine", err)
	}
}

// TestClusterChaosHungEngineTimesOut: a SIGSTOPped engine (the
// partition/hang case — the TCP connection stays open but nothing
// answers) fails the request within its 1s context, and so does a
// follow-up request whose redial meets the still-stopped daemon: the
// round deadline and the redial are both bounded by the request context.
func TestClusterChaosHungEngineTimesOut(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos over TCP skipped in -short mode")
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

	// within issues a request under a 1s context and checks it comes
	// back typed, well before the 30s default round deadline.
	within := func(key uint64, ell int, stop func()) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		start := time.Now()
		errCh := make(chan error, 1)
		go func() {
			_, err := svc.SingleRandomWalk(ctx, key, 0, ell)
			errCh <- err
		}()
		if stop != nil {
			stop()
		}
		select {
		case err := <-errCh:
			if !errors.Is(err, distwalk.ErrClusterEngine) && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("request %d on a hung engine = %v, want ErrClusterEngine or DeadlineExceeded", key, err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("request %d took %v under a 1s context", key, elapsed)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("request %d hung on a stopped engine despite its context", key)
		}
	}

	defer func() {
		eng.cmd.Process.Signal(syscall.SIGCONT)
		eng.cmd.Process.Kill()
	}()
	within(1, 300_000, func() {
		// One served round is mid-protocol enough, and reached well
		// inside the 1s context even on a slow, race-instrumented run.
		waitMidRun(t, eng, 1)
		if err := eng.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
			t.Fatal(err)
		}
	})
	within(2, 64, nil)
}

// TestClusterChaosKillThenRedialBitIdentical is the isolation contract
// end to end: killing an engine mid-run fails the request typed — it is
// not re-run in process, so Failovers stays 0 — and once the engine
// restarts on its old port the next request redials it with the same
// handshake, and the service is bit-identical to WithShards(S) again.
func TestClusterChaosKillThenRedialBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos over TCP skipped in -short mode")
	}
	g, err := distwalk.Torus(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	const engines = 2
	// The in-process sharded service cluster mode is bit-identical to.
	ref, err := distwalk.NewService(g, 42, distwalk.WithWorkers(1), distwalk.WithShards(engines))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	eng0 := startEngine(t, "-debug-addr", "127.0.0.1:0")
	eng1 := startEngine(t)
	svc, err := distwalk.NewService(g, 42, distwalk.WithWorkers(1), distwalk.WithCluster(eng0.addr, eng1.addr))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Kill engine 0 mid-run: the long walk fails typed, promptly.
	errCh := make(chan error, 1)
	go func() {
		_, err := svc.SingleRandomWalk(context.Background(), 99, 0, 300_000)
		errCh <- err
	}()
	waitMidRun(t, eng0, 200)
	if err := eng0.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, distwalk.ErrClusterEngine) || !errors.Is(err, distwalk.ErrEngineLost) {
			t.Fatalf("request across a mid-run kill = %v, want ErrClusterEngine + ErrEngineLost", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("request hung after SIGKILL")
	}
	st := svc.Stats().Cluster
	if st.Health[0] != "lost" || st.Failovers != 0 {
		t.Fatalf("after the kill: Health %v, Failovers %d; want engine 0 lost and no failover", st.Health, st.Failovers)
	}

	// Restart the engine on its old port: the next request redials it
	// with the same handshake, reports it healthy again and runs on it.
	eng0.waitExit(t, 10*time.Second)
	eng0b := startEngineAt(t, eng0.addr, "-debug-addr", "127.0.0.1:0")
	if _, err := svc.SingleRandomWalk(context.Background(), 7, 0, 64); err != nil {
		t.Fatalf("request after restart: %v", err)
	}
	if h := svc.Stats().Cluster.Health[0]; h != "healthy" {
		t.Fatalf("Health[0] = %q after the redial, want healthy", h)
	}
	if runs := fetchEngineVars(t, eng0b.debug)["runs"]; runs == 0 {
		t.Fatal("the restarted engine served no run")
	}

	// Full identity sweep on the healed cluster: every workload digest
	// matches the in-process reference again.
	for _, wl := range shardWorkloads() {
		a, errA := wl.run(ref, 5)
		b, errB := wl.run(svc, 5)
		if errA != nil || errB != nil {
			t.Fatalf("%s after redial: sharded err %v, cluster err %v", wl.name, errA, errB)
		}
		if a != b {
			t.Errorf("%s diverged after redial:\n  sharded: %s\n  cluster: %s", wl.name, a, b)
		}
	}
	if got := svc.Stats().Cluster.Failovers; got != 0 {
		t.Errorf("Failovers = %d, want 0", got)
	}
}

// TestClusterChaosIdleDeath: an engine killed while the cluster is idle
// surfaces on the next request that uses its session, typed and fast,
// and a request after the engine restarts on its old port runs on it
// again, bit-identical to WithShards(1).
func TestClusterChaosIdleDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos over TCP skipped in -short mode")
	}
	g, err := distwalk.Torus(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := distwalk.NewService(g, 42, distwalk.WithWorkers(1), distwalk.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	eng := startEngine(t)
	svc, err := distwalk.NewService(g, 42, distwalk.WithWorkers(1), distwalk.WithCluster(eng.addr))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	// Warm up so a session exists, then kill while idle.
	if _, err := svc.SingleRandomWalk(ctx, 1, 0, 64); err != nil {
		t.Fatal(err)
	}
	if err := eng.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	eng.waitExit(t, 10*time.Second)

	// The dead session fails the next request at once.
	start := time.Now()
	_, err = svc.SingleRandomWalk(ctx, 2, 0, 512)
	if !errors.Is(err, distwalk.ErrClusterEngine) || !errors.Is(err, distwalk.ErrEngineLost) {
		t.Fatalf("request after idle death = %v, want ErrClusterEngine + ErrEngineLost", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("idle death surfaced after %v, want within 1s", elapsed)
	}

	// Restarted on its old port, the engine serves again: a cluster
	// request never runs in process, so a success ran remotely, and it
	// matches WithShards(1) bit for bit.
	startEngineAt(t, eng.addr)
	a, errA := ref.SingleRandomWalk(ctx, 4, 0, 512)
	b, errB := svc.SingleRandomWalk(ctx, 4, 0, 512)
	if errA != nil || errB != nil {
		t.Fatalf("request after restart: ref err %v, cluster err %v", errA, errB)
	}
	if a.Destination != b.Destination || a.Length != b.Length || a.Cost != b.Cost {
		t.Fatalf("request after restart diverged: ref %+v, cluster %+v", a, b)
	}
	if h := svc.Stats().Cluster.Health[0]; h != "healthy" {
		t.Fatalf("Health[0] = %q after restart, want healthy", h)
	}
}
