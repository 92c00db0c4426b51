package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"circus"
)

const (
	echoService  = "echo"
	echoProc     = 1
	echoArgBytes = 64
)

// echoModule is the benchmark's echo: the reply is the request. It
// remembers every request id it executed, so a second execution of
// one request at one member is caught.
type echoModule struct {
	e *env
	// corruptRID is a planted fault: the reply to this request id is
	// altered, identically at every member, so collation passes it on.
	corruptRID uint64

	mu   sync.Mutex
	seen map[uint64]struct{}
}

func newEcho(e *env, corruptRID uint64) *echoModule {
	return &echoModule{e: e, corruptRID: corruptRID, seen: make(map[uint64]struct{})}
}

func (m *echoModule) Dispatch(_ *circus.ServerCall, proc uint16, args []byte) ([]byte, error) {
	rid, _, err := splitRID(args)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	_, dup := m.seen[rid]
	m.seen[rid] = struct{}{}
	m.mu.Unlock()
	if dup {
		m.e.dups.Add(1)
	}
	if rid == m.corruptRID {
		out := append([]byte(nil), args...)
		out[len(out)-1] ^= 0xff
		return out, nil
	}
	return args, nil
}

// The echo keeps no state, so a joining member needs none.
func (m *echoModule) GetState() ([]byte, error) { return nil, nil }
func (m *echoModule) SetState([]byte) error     { return nil }

// echoFiller is what follows the request id in every echo request,
// drawn from the seed.
func echoFiller(seed int64) []byte {
	b := make([]byte, echoArgBytes-8)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// checkEcho records a violation unless the reply is the request.
func checkEcho(e *env, rid uint64, args, reply []byte) error {
	if !bytes.Equal(args, reply) {
		e.violate("echo request %d: reply differs from its arguments", rid)
		return fmt.Errorf("echo request %d: wrong reply", rid)
	}
	return nil
}

// nodeSet is the nodes of a cluster, for closing and counting.
type nodeSet []*circus.Node

func (ns nodeSet) close() {
	for _, n := range ns {
		n.Close()
	}
}

// addMessageCounters sums the paired-message counters of every node.
func (ns nodeSet) addMessageCounters(m map[string]float64) {
	for _, n := range ns {
		st := n.Runtime().MessageStats()
		m["pm.segments"] += float64(st.SegmentsSent)
		m["pm.retransmits"] += float64(st.Retransmits)
		m["pm.acks"] += float64(st.AcksSent)
		m["pm.probes"] += float64(st.ProbesSent)
		m["pm.dup_segments"] += float64(st.DupSegments)
		m["pm.delivery_drops"] += float64(st.DeliveryDrops)
		m["pm.acks_piggybacked"] += float64(st.AcksPiggybacked)
		m["pm.bundles"] += float64(st.BundlesSent)
		m["pm.bundled_frames"] += float64(st.BundledFrames)
	}
}

// addSimCounters adds the simulated network's datagram counters.
func addSimCounters(m map[string]float64, sim *circus.SimNetwork) {
	sendOps, datagrams, _, dropped := sim.Stats()
	m["sim.sendops"] = float64(sendOps)
	m["sim.datagrams"] = float64(datagrams)
	m["sim.dropped"] = float64(dropped)
}

// ---------------------------------------------------------------------
// echo-udp: a degree-3 echo troupe and one client over loopback UDP.

type echoUDP struct {
	e      *env
	nodes  nodeSet
	stub   *circus.Stub
	filler []byte
}

func buildEchoUDP(e *env) (cluster, error) { return newEchoUDP(e, 0) }

func newEchoUDP(e *env, corruptRID uint64) (*echoUDP, error) {
	c := &echoUDP{e: e, filler: echoFiller(e.seed)}
	fail := func(err error) (*echoUDP, error) {
		c.close()
		return nil, err
	}
	binder, err := circus.ListenUDP(0)
	if err != nil {
		return fail(err)
	}
	c.nodes = append(c.nodes, binder)
	if _, err := binder.ServeRingmaster(); err != nil {
		return fail(err)
	}
	boot := circus.WithBinder(binder.BinderAddrs())
	for i := 0; i < 3; i++ {
		n, err := circus.ListenUDP(0, boot)
		if err != nil {
			return fail(err)
		}
		c.nodes = append(c.nodes, n)
		if _, err := n.Export(echoService, e.timed(newEcho(e, corruptRID), "core.exec", i, true)); err != nil {
			return fail(err)
		}
	}
	cl, err := circus.ListenUDP(0, boot)
	if err != nil {
		return fail(err)
	}
	c.nodes = append(c.nodes, cl)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = e.tr.timeSetup("ringmaster.bind", func() (err error) {
		c.stub, err = cl.Import(ctx, echoService)
		return err
	})
	if err != nil {
		return fail(err)
	}
	return c, nil
}

func (c *echoUDP) op(ctx context.Context, rid uint64) error {
	args := withRID(rid, c.filler)
	st := c.e.tr.begin()
	reply, err := c.stub.Call(ctx, echoProc, args)
	c.e.tr.end("core.call", st, rid, client, nil)
	if err != nil {
		return err
	}
	return checkEcho(c.e, rid, args, reply)
}

func (c *echoUDP) counters() map[string]float64 {
	m := map[string]float64{}
	c.nodes.addMessageCounters(m)
	return m
}

func (c *echoUDP) verify(context.Context) error { return nil }
func (c *echoUDP) close()                       { c.nodes.close() }

// ---------------------------------------------------------------------
// failover-sim: a degree-3 echo troupe over a simulated 1 ms wire,
// reached through a resilient stub. Each measured phase crashes one
// member a third of the way in and joins a replacement at two thirds.

type failover struct {
	e      *env
	sim    *circus.SimNetwork
	boot   circus.Option
	nodes  nodeSet
	live   []*circus.Node // current troupe members
	stub   *circus.ResilientStub
	filler []byte
	rng    *rand.Rand
	joined int
}

func buildFailover(e *env) (cluster, error) {
	c := &failover{e: e, sim: circus.NewSimNetwork(e.seed), filler: echoFiller(e.seed),
		rng: rand.New(rand.NewSource(e.seed ^ 0xfa11))}
	c.sim.SetLink(circus.LinkConfig{MinDelay: time.Millisecond, MaxDelay: time.Millisecond})
	fail := func(err error) (cluster, error) {
		c.close()
		return nil, err
	}
	binder, err := c.sim.NewNode()
	if err != nil {
		return fail(err)
	}
	c.nodes = append(c.nodes, binder)
	if _, err := binder.ServeRingmaster(); err != nil {
		return fail(err)
	}
	c.boot = circus.WithBinder(binder.BinderAddrs())
	for i := 0; i < 3; i++ {
		n, err := c.sim.NewNode(c.boot)
		if err != nil {
			return fail(err)
		}
		c.nodes = append(c.nodes, n)
		c.live = append(c.live, n)
		if _, err := n.Export(echoService, e.timed(newEcho(e, 0), "core.exec", i, true)); err != nil {
			return fail(err)
		}
	}
	cl, err := c.sim.NewNode(c.boot)
	if err != nil {
		return fail(err)
	}
	c.nodes = append(c.nodes, cl)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = e.tr.timeSetup("ringmaster.bind", func() (err error) {
		c.stub, err = cl.ImportResilient(ctx, echoService, circus.ResilientOptions{Seed: e.seed})
		return err
	})
	if err != nil {
		return fail(err)
	}
	return c, nil
}

func (c *failover) op(ctx context.Context, rid uint64) error {
	args := withRID(rid, c.filler)
	st := c.e.tr.begin()
	reply, err := c.stub.Call(ctx, echoProc, args)
	c.e.tr.end("core.call", st, rid, client, nil)
	if err != nil {
		return err
	}
	return checkEcho(c.e, rid, args, reply)
}

// faults crashes a seeded choice of member at dur/3 and joins a fresh
// member at 2dur/3.
func (c *failover) faults(ctx context.Context, dur time.Duration) func() {
	done := make(chan struct{})
	victim := c.rng.Intn(len(c.live))
	go func() {
		defer close(done)
		t0 := time.Now()
		sleepUntil(ctx, t0.Add(dur/3))
		c.sim.Crash(c.live[victim])
		c.live = append(c.live[:victim:victim], c.live[victim+1:]...)
		sleepUntil(ctx, t0.Add(2*dur/3))
		if err := c.join(ctx); err != nil {
			c.e.violate("replacement member failed to join: %v", err)
		}
	}()
	return func() { <-done }
}

func (c *failover) join(ctx context.Context) error {
	n, err := c.sim.NewNode(c.boot)
	if err != nil {
		return err
	}
	c.nodes = append(c.nodes, n)
	c.joined++
	return c.e.tr.timeSetup("ringmaster.join", func() error {
		_, err := n.JoinTroupe(ctx, echoService, c.e.timed(newEcho(c.e, 0), "core.exec", 2+c.joined, true))
		if err == nil {
			c.live = append(c.live, n)
		}
		return err
	})
}

func sleepUntil(ctx context.Context, t time.Time) {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

func (c *failover) counters() map[string]float64 {
	m := map[string]float64{}
	c.nodes.addMessageCounters(m)
	addSimCounters(m, c.sim)
	st := c.stub.Stats()
	m["res.retries"] = float64(st.Retries)
	m["res.suspected"] = float64(st.Suspected)
	m["res.rebinds"] = float64(st.Rebinds)
	return m
}

func (c *failover) verify(context.Context) error { return nil }
func (c *failover) close()                       { c.nodes.close() }
