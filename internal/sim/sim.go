package sim

import (
	"fmt"
	"math/bits"

	"sunfloor3d/internal/topology"
)

// Run simulates the routed topology under the configured traffic profile and
// returns the collected statistics. The topology must validate (every core
// attached, every flow routed); the simulation replays the committed per-flow
// switch paths with wormhole switching, finite VC buffers and credit-based
// flow control, and aborts early when the runtime watchdog detects a deadlock
// or livelock.
func Run(t *topology.Topology, cfg Config) (*Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := buildNetwork(t, cfg)
	if err != nil {
		return nil, err
	}
	return net.run(newProfileInjector(t, cfg), cfg), nil
}

// ZeroLoadLatencies simulates every flow in isolation — a single one-flit
// packet injected at cycle 0 into an otherwise empty network — and returns
// the measured head-flit latency of each flow in cycles. This is the
// zero-contention oracle: the returned values must equal
// Topology.FlowLatencyCycles exactly for every flow.
//
// The network is built once and reset() between flows, so the oracle costs
// one structure build instead of one per flow.
func ZeroLoadLatencies(t *topology.Topology, cfg Config) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.PacketFlits = 1
	cfg.Cycles = 1
	// The drain budget only needs to cover one uncontended traversal; the
	// watchdog still guards against a simulator bug that strands the packet.
	cfg.DrainCycles = 1 << 20
	net, err := buildNetwork(t, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]float64, t.Design.NumFlows())
	for f := range t.Design.Flows {
		if f > 0 {
			net.reset()
		}
		st := net.run(&singlePacketInjector{flow: f}, cfg)
		if st.PacketsDelivered != 1 {
			return nil, fmt.Errorf("sim: zero-load packet of flow %d not delivered (deadlock=%v livelock=%v)",
				f, st.Deadlock, st.Livelock)
		}
		out[f] = st.Flows[f].AvgLatencyCycles
	}
	return out, nil
}

// runState carries the mutable counters of one simulation.
type runState struct {
	inNetworkFlits   int64 // flits buffered in switch input VCs (incl. in-flight on links)
	sourceBacklog    int64 // packets queued at or being streamed by an NI
	packetsInNetwork int64 // packets whose head entered the network, tail not yet ejected

	packetsInjected, packetsDelivered int64
	flitsInjected, flitsDelivered     int64

	perFlowPktIn, perFlowPktOut   []int64
	perFlowFlitIn, perFlowFlitOut []int64
	perFlowHeads                  []int64
	latSum, latMin, latMax        []float64

	lastMove      int64
	lastDelivery  int64
	emptySince    int64 // last cycle the network held no undelivered packet
	deadlock      bool
	deadlockCycle int64
	livelock      bool
	latTotalSum   float64
	latTotalMax   float64
}

func newRunState(flows int) *runState {
	st := &runState{
		perFlowPktIn:   make([]int64, flows),
		perFlowPktOut:  make([]int64, flows),
		perFlowFlitIn:  make([]int64, flows),
		perFlowFlitOut: make([]int64, flows),
		perFlowHeads:   make([]int64, flows),
		latSum:         make([]float64, flows),
		latMin:         make([]float64, flows),
		latMax:         make([]float64, flows),
	}
	return st
}

// horizons derives the watchdog and livelock horizons of a run. The watchdog
// must outlast the deepest link pipeline: flits in flight on a long link
// legitimately produce no buffer movement for `stages` cycles.
func horizons(cfg Config, links []*link) (watchdog, livelock int64) {
	watchdog = int64(cfg.WatchdogCycles)
	maxStages := 0
	for _, l := range links {
		if l.stages > maxStages {
			maxStages = l.stages
		}
	}
	if min := int64(2*maxStages + 8); watchdog < min {
		watchdog = min
	}
	livelock = int64(cfg.LivelockCycles)
	if livelock < watchdog {
		livelock = watchdog
	}
	return watchdog, livelock
}

// run executes the cycle loop until the network drains, the horizon expires,
// or the watchdog trips.
func (net *network) run(inj injector, cfg Config) *Stats {
	t := net.top
	st := newRunState(t.Design.NumFlows())
	watchdog, livelockHorizon := horizons(cfg, net.links)

	horizon := int64(cfg.Cycles)
	maxCycle := horizon + int64(cfg.DrainCycles)

	// The emit closure is hoisted out of the loop (injNow carries the cycle)
	// so injection allocates nothing per cycle.
	var injNow int64
	emit := func(f, k int) {
		for ; k > 0; k-- {
			net.injectPacket(f, injNow, st)
		}
	}

	var now int64
	for now = 0; now < maxCycle; now++ {
		// Injection: every flow is polled every cycle, in index order, so the
		// profile state machines advance deterministically.
		if now < horizon && !inj.done() {
			// Fast-forward: with the network fully drained and the injector
			// able to prove (and bit-identically skip) a quiet stretch, the
			// clock jumps straight to the next injector event instead of
			// ticking empty cycles. Skipped cycles are no-ops in the
			// reference engine too — no flit moves, no watchdog arms — so
			// the Stats are unchanged.
			if st.inNetworkFlits == 0 && st.sourceBacklog == 0 {
				if next := inj.nextEventAt(now); next > now {
					if next >= horizon {
						// The injector stays quiet through the horizon: the
						// reference loop would idle to horizon-1 and stop.
						st.emptySince = horizon - 1
						now = horizon
						break
					}
					st.emptySince = next - 1
					now = next
				}
			}
			injNow = now
			inj.poll(now, emit)
		}

		moved := net.step(now, st)
		if moved {
			st.lastMove = now
		}
		if st.packetsInNetwork == 0 {
			st.emptySince = now
		}

		active := st.inNetworkFlits > 0 || st.sourceBacklog > 0
		if !active && (now+1 >= horizon || inj.done()) {
			now++
			break
		}
		// Global stall: buffered flits and nothing moved for a whole horizon.
		if st.inNetworkFlits > 0 && now-st.lastMove >= watchdog {
			st.deadlock = true
			st.deadlockCycle = now
			now++
			break
		}
		// Partial deadlock: a circular wait among stalled VCs can hide behind
		// unrelated traffic that keeps the global movement counter alive, so
		// the wait-for graph is checked periodically as well.
		if st.inNetworkFlits > 0 && now > 0 && now%watchdog == 0 && net.findCircularWait(now, watchdog) {
			st.deadlock = true
			st.deadlockCycle = now
			now++
			break
		}
		if st.packetsInNetwork > 0 && now-max64(st.lastDelivery, st.emptySince) >= livelockHorizon {
			st.livelock = true
			now++
			break
		}
	}
	forwarded := make([]int64, len(net.nodes))
	outputs := make([]int64, len(net.nodes))
	for i, s := range net.nodes {
		forwarded[i] = s.forwarded
		outputs[i] = int64(len(s.outputs))
	}
	return collectStats(net.top, cfg, now, st, net.links, forwarded, outputs)
}

// injectPacket creates one packet of the flow in the arena and appends its
// index to the source core's NI queue.
func (net *network) injectPacket(f int, now int64, st *runState) {
	fl := net.top.Design.Flows[f]
	n := net.niOf[fl.Src]
	id := net.allocPacket()
	net.packets[id] = packet{
		flow:   int32(f),
		flits:  int32(net.packetFlits),
		path:   net.top.Routes[f].Switches,
		inject: now,
	}
	n.q.push(id)
	st.sourceBacklog++
	st.packetsInjected++
	st.flitsInjected += int64(net.packetFlits)
	st.perFlowPktIn[f]++
	st.perFlowFlitIn[f] += int64(net.packetFlits)
}

// step advances the network by one cycle: NIs first (their flits may be
// forwarded by the attached switch in the same cycle, which is what makes the
// zero-load latency match the analytic model exactly), then every switch
// output port in deterministic order. It reports whether any flit moved.
//
// Unlike the reference engine's dense scan, step costs in proportion to the
// ports with work: the NI loop is skipped entirely while no packet is queued
// or streaming, and the switch phase walks only the active-port set, the
// ports that hold a packet or have a requesting head flit, in ascending
// (switch, port) order. The current word of the set is read again after each
// port, so a port that gains a request from an earlier port in the same
// cycle is visited in that cycle, just as the reference scan reaches it. The
// order over the surviving work (core order, then switch/port index order)
// is identical to the reference scan, which keeps every same-cycle credit
// return, VC release and arbitration, and therefore the whole run,
// bit-identical.
func (net *network) step(now int64, st *runState) bool {
	moved := false

	// Network interfaces: stream the current packet one flit per cycle.
	if st.sourceBacklog > 0 {
		for _, n := range net.nis {
			if n.cur < 0 {
				if n.q.len() == 0 || net.packets[n.q.front()].inject > now {
					continue
				}
				k := freeVC(n.ds)
				if k < 0 {
					continue
				}
				id := n.q.pop()
				v := &n.ds.vcs[k]
				v.owner = id
				v.hop = 0
				v.lastMove = now
				v.out = net.routeOutput(n.ds.sw, v)
				n.ds.sw.busyVCs++
				n.cur, n.seq, n.dsVC = id, 0, int32(k)
				st.packetsInNetwork++
			}
			v := &n.ds.vcs[n.dsVC]
			if int(v.n) >= net.bufring {
				continue // no credit at the first switch
			}
			// NI link traversal costs only its pipeline stages: the attached
			// switch's own cycle is charged when the switch forwards the flit.
			v.push(flit{pkt: n.cur, seq: n.seq, readyAt: now + int64(n.link.stages)})
			if n.seq == 0 {
				net.request(n.ds.sw.outputs[v.out], n.ds.base+n.dsVC)
			}
			n.link.busy++
			st.inNetworkFlits++
			moved = true
			n.seq++
			if n.seq == net.packets[n.cur].flits {
				n.cur = -1
				st.sourceBacklog--
			}
		}
	}

	// Switches: one flit per output port with work per cycle.
	for w := range net.active {
		for b := 0; b < 64; b++ {
			word := net.active[w] >> uint(b)
			if word == 0 {
				break
			}
			b += bits.TrailingZeros64(word)
			o := net.ports[w<<6|b]
			if o.deadAt <= now {
				// Failed link: nothing is granted or forwarded onto it from
				// now on, so the port leaves the set (a later request puts
				// it back for one visit).
				net.active[w] &^= 1 << uint(b)
				continue
			}
			if o.alloc < 0 {
				net.arbitrate(o, now)
				if o.alloc < 0 {
					continue
				}
			}
			v := o.srcVC
			if v.n == 0 {
				continue // next flit still upstream
			}
			f := v.front()
			if f.readyAt > now {
				continue // still in the link pipeline
			}
			if o.ds != nil {
				dv := &o.ds.vcs[o.dsVC]
				if int(dv.n) >= net.bufring {
					continue // no downstream credit
				}
				v.pop()
				dv.push(flit{pkt: f.pkt, seq: f.seq, readyAt: now + 1 + o.stages})
				if f.seq == 0 {
					net.request(o.ds.sw.outputs[dv.out], o.ds.base+o.dsVC)
				}
			} else {
				// Ejection: the destination core always accepts.
				v.pop()
				st.inNetworkFlits--
				arrival := now + 1 + o.stages
				p := &net.packets[f.pkt]
				deliverFlit(int(p.flow), int(f.seq), int(p.flits), p.inject, arrival, st)
			}
			v.lastMove = now
			o.link.busy++
			o.sw.forwarded++
			moved = true
			if f.seq == net.packets[f.pkt].flits-1 {
				// Tail forwarded: release the VC and the output port; a tail
				// leaving on an ejection link retires the packet to the
				// arena free list (no live reference remains).
				v.owner = -1
				v.out = -1
				o.sw.busyVCs--
				if o.ds == nil {
					net.freePacket(f.pkt)
				}
				o.alloc = -1
				o.srcVC = nil
				o.dsVC = -1
				if o.waiters == 0 {
					net.active[w] &^= 1 << uint(b) // free, and nobody asks
				}
			}
		}
	}
	return moved
}

// request records that the head flit just buffered in candidate ci of o's
// switch requests o: the candidate joins o's request set and o joins the
// active-port set.
func (net *network) request(o *outputPort, ci int32) {
	o.req[ci>>6] |= 1 << uint(ci&63)
	o.waiters++
	net.active[o.id>>6] |= 1 << uint(o.id&63)
}

// arbitrate grants the free output port to a waiting head flit, round-robin
// over the switch's (input port, VC) pairs, reserving a downstream VC when
// the link leads to another switch. The reference engine walks the whole
// candidate ring from rr+1 and grants the first owned VC whose ready head
// flit requests the port. arbitrate walks only the port's request set, which
// holds exactly those VCs bar the readiness test, and grants its first
// member at or after rr+1, wrapping around, whose head is out of the link
// pipeline: the same grant. The granted VC leaves the set.
func (net *network) arbitrate(o *outputPort, now int64) {
	// With every downstream VC owned, no candidate can be granted this cycle
	// whatever the scan finds (the VC reservation is the last grant
	// condition and is candidate-independent), and the scan itself has no
	// side effects — so skip it. Under saturation this prunes most scans.
	dsFree := -1
	if o.ds != nil {
		if dsFree = freeVC(o.ds); dsFree < 0 {
			return
		}
	}
	start := o.rr + 1
	if start == int32(len(o.sw.cands)) {
		start = 0
	}
	ci := o.readyRequest(start, now)
	if ci < 0 {
		return
	}
	v := o.sw.cands[ci]
	if o.ds != nil {
		dv := &o.ds.vcs[dsFree]
		dv.owner = v.owner
		dv.hop = v.hop + 1
		dv.lastMove = now
		dv.out = net.routeOutput(o.ds.sw, dv)
		o.ds.sw.busyVCs++
		o.dsVC = int32(dsFree)
	}
	o.alloc = ci
	o.srcVC = v
	o.rr = ci
	o.req[ci>>6] &^= 1 << uint(ci&63)
	o.waiters--
}

// readyRequest returns the first member of o's request set at or after
// start, in cyclic order, whose head flit is out of the link pipeline at now,
// or -1. The cycle runs over all the set's words: no bit at or above the
// switch's candidate count is ever set, so the order over the members is the
// candidate ring's.
func (o *outputPort) readyRequest(start int32, now int64) int32 {
	nw := int32(len(o.req))
	w := start >> 6
	low := uint64(1)<<uint(start&63) - 1 // the start word's bits below start
	word := o.req[w] &^ low
	for i := int32(0); ; i++ {
		for ; word != 0; word &= word - 1 {
			ci := w<<6 | int32(bits.TrailingZeros64(word))
			if o.sw.cands[ci].front().readyAt <= now {
				return ci
			}
		}
		if i == nw {
			return -1
		}
		if w++; w == nw {
			w = 0
		}
		word = o.req[w]
		if i == nw-1 {
			word &= low // back at the start word
		}
	}
}

// deliverFlit accounts one flit reaching its destination core. It is shared
// by both engines, so the latency accumulation order — and therefore every
// floating-point sum in Stats — is identical.
func deliverFlit(flow, seq, flits int, inject, arrival int64, st *runState) {
	st.flitsDelivered++
	st.perFlowFlitOut[flow]++
	if seq == 0 {
		lat := float64(arrival - inject)
		st.latSum[flow] += lat
		st.latTotalSum += lat
		if st.perFlowHeads[flow] == 0 || lat < st.latMin[flow] {
			st.latMin[flow] = lat
		}
		st.perFlowHeads[flow]++
		if lat > st.latMax[flow] {
			st.latMax[flow] = lat
		}
		if lat > st.latTotalMax {
			st.latTotalMax = lat
		}
	}
	if seq == flits-1 {
		st.packetsDelivered++
		st.perFlowPktOut[flow]++
		st.packetsInNetwork--
		st.lastDelivery = arrival
	}
}

// findCircularWait detects partial deadlocks the global-stall watchdog cannot
// see: a circular wait among stalled VCs while unrelated traffic keeps the
// network moving. A VC is stalled when its head flit has been ready but
// unmoved for a whole watchdog horizon; each stalled VC waits on exactly one
// definite resource — the downstream VC whose credit it needs (output already
// allocated to it) or the VC currently holding its output port. A cycle of
// such definite waits can never resolve, because every resource on it is
// released only by the movement of another cycle member. Waits with multiple
// ways out (a head that merely needs any free VC on the next link) contribute
// no edge: they cannot prove a deadlock on their own, and the cycle of
// definite waits that starves them is detected through its own members.
//
// The detector walks only active switches and keeps its stalled list, wait
// edges and colors in scratch buffers on the network, so the periodic check
// allocates nothing in steady state. The transient vc.cwIdx field replaces
// the reference engine's map from VC pointer to stalled index.
func (net *network) findCircularWait(now, watchdog int64) bool {
	stalled := net.cwStalled[:0]
	for _, s := range net.nodes {
		if s.busyVCs == 0 {
			continue // a stalled VC is necessarily owned
		}
		for ci, v := range s.cands {
			if v.owner < 0 || v.n == 0 {
				continue
			}
			if v.front().readyAt > now || now-v.lastMove < watchdog {
				continue
			}
			v.cwIdx = int32(len(stalled))
			stalled = append(stalled, stalledVC{v: v, node: s, flat: int32(ci)})
		}
	}
	net.cwStalled = stalled
	if len(stalled) < 2 {
		clearCwIdx(stalled)
		return false
	}
	if cap(net.cwWaits) < len(stalled) {
		net.cwWaits = make([]int32, len(stalled))
		net.cwColor = make([]uint8, len(stalled))
	}
	// waitsOn[i] is the index of the stalled VC that i definitely waits on
	// (-1 when the blocker is not itself stalled, or the wait is not
	// definite).
	waitsOn := net.cwWaits[:len(stalled)]
	for i, sv := range stalled {
		waitsOn[i] = -1
		o := sv.node.outputs[sv.v.out]
		var blocker *vc
		switch {
		case o.alloc == sv.flat:
			// Output granted: the head waits on downstream credit. Ejection
			// links always drain, so a stalled VC here implies o.ds != nil.
			if o.ds != nil {
				blocker = &o.ds.vcs[o.dsVC]
			}
		case o.alloc >= 0:
			// Output held by another packet until its tail passes.
			blocker = sv.node.cands[o.alloc]
		}
		if blocker != nil && blocker.cwIdx >= 0 {
			waitsOn[i] = blocker.cwIdx
		}
	}
	// Functional graph (≤1 out-edge per vertex): follow the chains and look
	// for a vertex that reaches itself.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := net.cwColor[:len(stalled)]
	for i := range color {
		color[i] = white
	}
	for i := range stalled {
		if color[i] != white {
			continue
		}
		j := int32(i)
		for j >= 0 && color[j] == white {
			color[j] = grey
			j = waitsOn[j]
		}
		if j >= 0 && color[j] == grey {
			clearCwIdx(stalled)
			return true
		}
		k := int32(i)
		for k >= 0 && color[k] == grey {
			color[k] = black
			k = waitsOn[k]
		}
	}
	clearCwIdx(stalled)
	return false
}

// clearCwIdx restores the -1 invariant of vc.cwIdx after a detection pass.
func clearCwIdx(stalled []stalledVC) {
	for _, sv := range stalled {
		sv.v.cwIdx = -1
	}
}

// freeVC returns the lowest-index unowned VC of the input port, or -1.
func freeVC(ip *inputPort) int {
	for k := range ip.vcs {
		if ip.vcs[k].owner < 0 {
			return k
		}
	}
	return -1
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
