// Package wire is the cluster-mode transport: a length-prefixed TCP
// protocol that lets the congest package's shard engines run as separate
// processes (cmd/distwalkd) while the simulated execution stays
// bit-identical to the in-process engines.
//
// # Session model
//
// One connection is one session: a client worker (one pooled Service
// network) driving one remote ShardEngine. A cluster of S engines serving
// W workers therefore carries W×S sessions; sessions share nothing but
// the server process, mirroring the in-process design where every pooled
// worker owns its own Network. A session is strictly synchronous — the
// client writes one request frame and reads exactly one reply (RunBegin
// and Goodbye, which have no reply, are the exceptions) — so neither end
// ever needs to multiplex.
//
// # Framing
//
// Every frame is:
//
//	u32be  body length (1 ≤ len ≤ MaxFrame, counts the type byte)
//	u8     frame type
//	...    payload (fixed-width little-endian fields)
//
// A reader validates the length before allocating and reads the body in
// bounded chunks, so corrupt or hostile length fields cannot balloon
// memory; payload decoders validate every count field against the bytes
// actually present. All decode failures are typed (ErrBadFrame,
// ErrFrameTooBig, ErrTruncated) and never panic — the fuzz target in
// fuzz_test.go pins this.
//
// # Handshake
//
// The client opens with Hello: protocol magic and version, the graph
// generation (GraphDigest over the weighted topology), the full edge
// list, the shard plan (PlanShards bounds), the session's shard index,
// the engine edge capacity, the service seed (informational) and the
// fault plan the engine must charge. The server verifies the digest
// against the shipped topology, pins the first generation it serves
// (later sessions offering a different generation are rejected with
// CodeGeneration), checks the shard index against the plan and any
// -shard pin (CodeShardIndex), compiles the engine (bad plans fail with
// CodeBadPlan) and answers Welcome. Any rejection is an Error frame
// carrying a typed code; the client surfaces it as a *RemoteError whose
// Unwrap matches the corresponding sentinel (ErrGeneration,
// ErrShardIndex, ...).
//
// # Round cadence
//
// A run is:
//
//	RunBegin                        (no reply; engine resets)
//	repeat per round r = 0, 1, ...:
//	  Push{r, sends}  → PushAck{active}
//	  ... client decides: quiesce/halt/budget/cancel? ...
//	  Deliver{r+1}    → Buffer{delivered messages}
//	RunEnd            → RunResult{counters, first loss}
//
// Push ships the round's sends from the engine's node range unresolved
// (from, to, kind, words, payload); the engine resolves the least-loaded
// parallel-edge pick and the delay-start write with Network.send's exact
// semantics, and acks with its active edge count — its contribution to
// the client's quiescence verdict. Deliver drains the engine's edge
// range for the round in ascending edge order, charging faults in the
// canonical delay → crash → loss order, and returns the surviving
// messages. The client writes the round's frames to all S engines before
// reading any reply, so engines work concurrently; replies merge in
// ascending shard order, which reproduces the sequential engine's global
// ascending-directed-edge delivery order (engines own ascending
// contiguous edge ranges). RunResult returns the engine's Result
// counters and first-loss record, merged client-side exactly as the
// in-process sharded run merges its shards.
//
// # Liveness and redial
//
// Every exchange on an established session runs under a per-round I/O
// deadline (EngineConn.SetRoundTimeout; the Service derives it from the
// request context, floored so slow-but-alive engines are not misread as
// dead), and DialEngineContext bounds the dial and handshake by the
// context. A blown deadline — hung process, network partition — fails
// with an *EngineLostError matching both ErrEngineTimeout and
// ErrEngineLost; connection losses (EOF, reset, a SIGKILLed daemon) and
// refused dials match only ErrEngineLost. A failed session is marked
// broken and must be discarded: the round loop writes to all engines
// before reading replies, so after a mid-run failure the client cannot
// know which frames the surviving sessions consumed. There is no
// heartbeat: an engine that dies between runs surfaces on the next
// exchange that uses its session, and the client redials on the request
// after that, re-sending the pinned Hello — digest included — so a
// restarted engine serving a different graph generation is rejected,
// never silently adopted. On the server side, the TCP keepalive Go
// enables on accepted connections ends the sessions of clients that
// vanished.
//
// # Shutdown
//
// A draining server (SIGINT/SIGTERM in distwalkd) closes its listener
// and idle sessions immediately, and lets sessions inside a run finish
// it: the run's RunEnd completes the result exchange, then the session
// closes. New handshakes during the drain are rejected with
// CodeShuttingDown.
package wire
