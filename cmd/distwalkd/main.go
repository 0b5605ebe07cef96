// Command distwalkd is a shard-engine server for cluster mode: it hosts
// the transport layer (edge queues, fault charging, delivery) of one or
// more CONGEST shards and serves them to distwalk clients over the
// internal/wire protocol. A cluster of S distwalkd processes plus a
// client using WithCluster executes runs bit-identically to the same
// client using WithShards(S) in-process.
//
// Usage:
//
//	distwalkd -listen 127.0.0.1:7070
//	distwalkd -listen 127.0.0.1:0 -shard 1 -debug-addr 127.0.0.1:8080
//
// The process prints "distwalkd listening on <addr>" once the listener is
// up (with -listen :0, that line is how callers learn the port). A
// first SIGINT/SIGTERM starts a graceful drain — in-flight runs finish,
// new sessions are refused — and a second one force-closes everything.
// With -debug-addr, the server's counters are published as the expvar
// "distwalkd" at http://<debug-addr>/debug/vars.
//
// -handshake-timeout bounds the Hello/Welcome exchange of each new
// session.
package main

import (
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"distwalk/internal/wire"
)

// Typed top-level failures, mapped to distinct exit codes so process
// managers and the cluster tests can tell misuse from runtime failure:
// 2 for flag or usage errors, 1 for everything else.
var (
	errUsage  = errors.New("distwalkd: invalid usage")
	errListen = errors.New("distwalkd: cannot listen")
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "distwalkd:", err)
		if errors.Is(err, errUsage) || errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// publishOnce guards the process-global expvar name (expvar.Publish
// panics on duplicates; tests call run more than once per process).
var publishOnce sync.Once

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("distwalkd", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:7070", "TCP address to serve engine sessions on (host:0 picks a free port)")
		debugAddr = fs.String("debug-addr", "", "optional HTTP address exposing the server counters at /debug/vars")
		shard     = fs.Int("shard", -1, "pin this server to one shard index of the cluster plan (-1 serves any shard)")
		hsTO      = fs.Duration("handshake-timeout", wire.DefaultHandshakeTimeout, "bound on the Hello/Welcome exchange of a new session")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%w: unexpected arguments %q", errUsage, fs.Args())
	}
	if *shard < -1 {
		return fmt.Errorf("%w: -shard %d out of range (want -1 for any shard, or a plan index >= 0)", errUsage, *shard)
	}
	if *hsTO <= 0 {
		return fmt.Errorf("%w: -handshake-timeout %v must be positive", errUsage, *hsTO)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("%w: %w", errListen, err)
	}
	srv := wire.NewServer(wire.ServerConfig{
		PinShard:         *shard,
		HandshakeTimeout: *hsTO,
	})

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("%w: -debug-addr: %w", errListen, err)
		}
		publishOnce.Do(func() {
			expvar.Publish("distwalkd", expvar.Func(func() any { return srv.Metrics().Snapshot() }))
		})
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", expvar.Handler())
		debugSrv = &http.Server{Handler: mux}
		go debugSrv.Serve(dln)
		fmt.Fprintf(stdout, "distwalkd debug on %s\n", dln.Addr())
	}

	// First signal: drain (in-flight runs finish, new sessions refused).
	// Second signal: force-close.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		<-sig
		fmt.Fprintln(stdout, "distwalkd draining")
		go srv.Shutdown()
		<-sig
		fmt.Fprintln(stdout, "distwalkd force close")
		srv.Close()
	}()

	fmt.Fprintf(stdout, "distwalkd listening on %s\n", ln.Addr())
	err = srv.Serve(ln)
	if debugSrv != nil {
		debugSrv.Close()
	}
	if err != nil {
		return fmt.Errorf("distwalkd: serve: %w", err)
	}
	fmt.Fprintln(stdout, "distwalkd stopped")
	return nil
}
