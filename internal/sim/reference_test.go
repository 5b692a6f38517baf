package sim

import (
	"fmt"

	"sunfloor3d/internal/geom"
	"sunfloor3d/internal/topology"
)

// This file retains the pre-optimization execution core — pointer-based
// packets allocated per injection, slice-backed VC queues advanced with
// q = q[1:], map-based output lookups and a dense cycle loop that scans every
// NI, switch and output port every cycle. It is run through runReference and
// referenceZeroLoadLatencies and exists only as the oracle of the
// equivalence tests and FuzzSimDeterminism: the optimized engine must
// produce byte-identical Stats. It must not be "improved"; any behavioural
// change here invalidates that use.

// runReference is Run on the reference engine.
func runReference(t *topology.Topology, cfg Config) (*Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := buildRefNetwork(t, cfg)
	if err != nil {
		return nil, err
	}
	return net.run(newProfileInjector(t, cfg), cfg), nil
}

// referenceZeroLoadLatencies is ZeroLoadLatencies on the reference engine,
// with the same forced single-flit configuration.
func referenceZeroLoadLatencies(t *topology.Topology, cfg Config) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.PacketFlits = 1
	cfg.Cycles = 1
	cfg.DrainCycles = 1 << 20
	return refZeroLoadLatencies(t, cfg)
}

// refPacket is one in-flight packet of the reference engine.
type refPacket struct {
	flow   int
	flits  int
	path   []int // committed switch path of the flow
	inject int64 // cycle the packet entered its source queue
}

// refFlit is one flow-control unit buffered in a reference virtual channel.
type refFlit struct {
	pkt     *refPacket
	seq     int // 0 = head, pkt.flits-1 = tail
	readyAt int64
}

// refVC is one virtual-channel buffer of a reference switch input port.
type refVC struct {
	owner    *refPacket
	hop      int // index of this input port's switch within owner.path
	q        []refFlit
	lastMove int64
}

// refInputPort is one switch input port with its virtual channels.
type refInputPort struct {
	link *link
	vcs  []refVC
}

// refOutputPort is one switch output port.
type refOutputPort struct {
	link *link
	// ds is the input port on the downstream switch (nil for ejection links).
	ds *refInputPort
	// alloc is the index into the owning switch's flat candidate list of the
	// (input port, VC) currently holding this output, or -1 when free.
	alloc int
	// dsVC is the downstream VC reserved for the allocated packet.
	dsVC int
	// rr is the round-robin arbitration pointer over the candidate list.
	rr int
}

// refSwitch is one simulated switch of the reference engine.
type refSwitch struct {
	id      int
	inputs  []*refInputPort
	outputs []*refOutputPort
	// outTo maps a next-hop switch ID to the output port index; outEject maps
	// a destination core to its ejection output port index.
	outTo    map[int]int
	outEject map[int]int

	forwarded int64 // flits forwarded by this switch
}

// refNI is the network interface of one source core: an unbounded source
// queue feeding the core's injection link one flit per cycle.
type refNI struct {
	core int
	link *link
	ds   *refInputPort
	q    []*refPacket
	cur  *refPacket
	seq  int
	dsVC int
}

// refNetwork is the static structure plus the dynamic state of one reference
// simulation.
type refNetwork struct {
	top   *topology.Topology
	links []*link
	nodes []*refSwitch
	nis   []*refNI
	niOf  []*refNI

	vcs         int
	bufring     int
	packetFlits int
}

// buildRefNetwork instantiates the reference simulation structure. The link
// construction order is identical to buildNetwork, so both engines report the
// same link rows in the same order.
func buildRefNetwork(t *topology.Topology, cfg Config) (*refNetwork, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("sim: topology not simulatable: %w", err)
	}
	net := &refNetwork{top: t, vcs: cfg.VCs, bufring: cfg.BufferFlits, packetFlits: cfg.PacketFlits}

	nodes := make([]*refSwitch, t.NumSwitches())
	for i := range nodes {
		nodes[i] = &refSwitch{id: i, outTo: make(map[int]int), outEject: make(map[int]int)}
	}
	net.nodes = nodes

	isSrc := make([]bool, t.Design.NumCores())
	isDst := make([]bool, t.Design.NumCores())
	for _, f := range t.Design.Flows {
		isSrc[f.Src] = true
		isDst[f.Dst] = true
	}

	addLink := func(l *link) *link {
		l.id = len(net.links)
		l.deadAt = neverDead
		net.links = append(net.links, l)
		return l
	}
	attachInput := func(s int, l *link) *refInputPort {
		p := &refInputPort{link: l, vcs: make([]refVC, cfg.VCs)}
		nodes[s].inputs = append(nodes[s].inputs, p)
		return p
	}
	attachOutput := func(s int, l *link, ds *refInputPort) int {
		o := &refOutputPort{link: l, ds: ds, alloc: -1}
		nodes[s].outputs = append(nodes[s].outputs, o)
		return len(nodes[s].outputs) - 1
	}

	// Injection links, in core order (deterministic network layout).
	net.niOf = make([]*refNI, t.Design.NumCores())
	for c := 0; c < t.Design.NumCores(); c++ {
		if !isSrc[c] {
			continue
		}
		sw := t.CoreAttach[c]
		planar := t.Design.Cores[c].Rect().Center()
		stages := t.Lib.LinkPipelineStages(geom.Manhattan(planar, t.Switches[sw].Pos), t.FreqMHz)
		l := addLink(&link{kind: linkInjection, from: -1, to: sw, core: c, stages: stages})
		in := attachInput(sw, l)
		n := &refNI{core: c, link: l, ds: in}
		net.nis = append(net.nis, n)
		net.niOf[c] = n
	}

	// Switch-to-switch links, in the deterministic (From, To) order of
	// SwitchLinks.
	for _, sl := range t.SwitchLinks() {
		planar := geom.Manhattan(t.Switches[sl.From].Pos, t.Switches[sl.To].Pos)
		stages := t.Lib.LinkPipelineStages(planar, t.FreqMHz)
		l := addLink(&link{kind: linkInternal, from: sl.From, to: sl.To, core: -1, stages: stages})
		in := attachInput(sl.To, l)
		nodes[sl.From].outTo[sl.To] = attachOutput(sl.From, l, in)
	}

	// Ejection links, in core order.
	for c := 0; c < t.Design.NumCores(); c++ {
		if !isDst[c] {
			continue
		}
		sw := t.CoreAttach[c]
		planar := t.Design.Cores[c].Rect().Center()
		stages := t.Lib.LinkPipelineStages(geom.Manhattan(planar, t.Switches[sw].Pos), t.FreqMHz)
		l := addLink(&link{kind: linkEjection, from: sw, to: -1, core: c, stages: stages})
		nodes[sw].outEject[c] = attachOutput(sw, l, nil)
	}
	if err := applyDeadLinks(net.links, cfg); err != nil {
		return nil, err
	}
	return net, nil
}

// nextOutput returns the output port the packet requests at the switch where
// the given input VC lives.
func (net *refNetwork) nextOutput(s *refSwitch, v *refVC) *refOutputPort {
	pkt := v.owner
	if v.hop == len(pkt.path)-1 {
		dst := net.top.Design.Flows[pkt.flow].Dst
		return s.outputs[s.outEject[dst]]
	}
	return s.outputs[s.outTo[pkt.path[v.hop+1]]]
}

// run executes the reference cycle loop until the network drains, the horizon
// expires, or the watchdog trips.
func (net *refNetwork) run(inj injector, cfg Config) *Stats {
	t := net.top
	st := newRunState(t.Design.NumFlows())
	watchdog, livelockHorizon := horizons(cfg, net.links)

	horizon := int64(cfg.Cycles)
	maxCycle := horizon + int64(cfg.DrainCycles)

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

// injectPacket creates one packet of the flow and appends it to the source
// core's NI queue.
func (net *refNetwork) injectPacket(f int, now int64, st *runState) {
	fl := net.top.Design.Flows[f]
	n := net.niOf[fl.Src]
	pkt := &refPacket{
		flow:   f,
		flits:  net.packetFlits,
		path:   net.top.Routes[f].Switches,
		inject: now,
	}
	n.q = append(n.q, pkt)
	st.sourceBacklog++
	st.packetsInjected++
	st.flitsInjected += int64(pkt.flits)
	st.perFlowPktIn[f]++
	st.perFlowFlitIn[f] += int64(pkt.flits)
}

// step advances the reference network by one cycle: NIs first, then every
// switch output port in deterministic order.
func (net *refNetwork) step(now int64, st *runState) bool {
	moved := false

	// Network interfaces: stream the current packet one flit per cycle.
	for _, n := range net.nis {
		if n.cur == nil {
			if len(n.q) == 0 || n.q[0].inject > now {
				continue
			}
			k := refFreeVC(n.ds)
			if k < 0 {
				continue
			}
			pkt := n.q[0]
			n.q = n.q[1:]
			n.ds.vcs[k].owner = pkt
			n.ds.vcs[k].hop = 0
			n.ds.vcs[k].lastMove = now
			n.cur, n.seq, n.dsVC = pkt, 0, k
			st.packetsInNetwork++
		}
		v := &n.ds.vcs[n.dsVC]
		if len(v.q) >= net.bufring {
			continue // no credit at the first switch
		}
		// NI link traversal costs only its pipeline stages: the attached
		// switch's own cycle is charged when the switch forwards the flit.
		v.q = append(v.q, refFlit{pkt: n.cur, seq: n.seq, readyAt: now + int64(n.link.stages)})
		n.link.busy++
		st.inNetworkFlits++
		moved = true
		n.seq++
		if n.seq == n.cur.flits {
			n.cur = nil
			st.sourceBacklog--
		}
	}

	// Switches: one flit per output port per cycle.
	for _, s := range net.nodes {
		ncand := len(s.inputs) * net.vcs
		for _, o := range s.outputs {
			if o.link.deadAt <= now {
				continue // failed link: nothing is granted or forwarded onto it
			}
			if o.alloc < 0 && ncand > 0 {
				net.arbitrate(s, o, ncand, now)
			}
			if o.alloc < 0 {
				continue
			}
			ip := s.inputs[o.alloc/net.vcs]
			v := &ip.vcs[o.alloc%net.vcs]
			if len(v.q) == 0 {
				continue // next flit still upstream
			}
			f := v.q[0]
			if f.readyAt > now {
				continue // still in the link pipeline
			}
			if o.ds != nil {
				dv := &o.ds.vcs[o.dsVC]
				if len(dv.q) >= net.bufring {
					continue // no downstream credit
				}
				v.q = v.q[1:]
				dv.q = append(dv.q, refFlit{pkt: f.pkt, seq: f.seq, readyAt: now + 1 + int64(o.link.stages)})
			} else {
				// Ejection: the destination core always accepts.
				v.q = v.q[1:]
				st.inNetworkFlits--
				arrival := now + 1 + int64(o.link.stages)
				deliverFlit(f.pkt.flow, f.seq, f.pkt.flits, f.pkt.inject, arrival, st)
			}
			v.lastMove = now
			o.link.busy++
			s.forwarded++
			moved = true
			if f.seq == f.pkt.flits-1 {
				// Tail forwarded: release the VC and the output port.
				v.owner = nil
				o.alloc = -1
				o.dsVC = -1
			}
		}
	}
	return moved
}

// arbitrate grants the free output port to a waiting head flit, round-robin
// over the switch's (input port, VC) pairs, reserving a downstream VC when the
// link leads to another switch.
func (net *refNetwork) arbitrate(s *refSwitch, o *refOutputPort, ncand int, now int64) {
	for i := 0; i < ncand; i++ {
		ci := (o.rr + 1 + i) % ncand
		ip := s.inputs[ci/net.vcs]
		v := &ip.vcs[ci%net.vcs]
		if v.owner == nil || len(v.q) == 0 {
			continue
		}
		f := v.q[0]
		if f.seq != 0 || f.readyAt > now {
			continue
		}
		if net.nextOutput(s, v) != o {
			continue
		}
		if o.ds != nil {
			k := refFreeVC(o.ds)
			if k < 0 {
				continue // no VC on the next link; head keeps waiting
			}
			o.ds.vcs[k].owner = v.owner
			o.ds.vcs[k].hop = v.hop + 1
			o.ds.vcs[k].lastMove = now
			o.dsVC = k
		}
		o.alloc = ci
		o.rr = ci
		return
	}
}

// findCircularWait detects partial deadlocks the global-stall watchdog cannot
// see; see the optimized engine's findCircularWait for the full rationale.
func (net *refNetwork) findCircularWait(now, watchdog int64) bool {
	type stalledVC struct {
		v    *refVC
		node *refSwitch
		flat int // candidate index of v within its switch (output alloc space)
	}
	idx := make(map[*refVC]int)
	var stalled []stalledVC
	for _, s := range net.nodes {
		for pi, ip := range s.inputs {
			for k := range ip.vcs {
				v := &ip.vcs[k]
				if v.owner == nil || len(v.q) == 0 {
					continue
				}
				if v.q[0].readyAt > now || now-v.lastMove < watchdog {
					continue
				}
				idx[v] = len(stalled)
				stalled = append(stalled, stalledVC{v: v, node: s, flat: pi*net.vcs + k})
			}
		}
	}
	if len(stalled) < 2 {
		return false
	}
	// waitsOn[i] is the index of the stalled VC that i definitely waits on
	// (-1 when the blocker is not itself stalled, or the wait is not
	// definite).
	waitsOn := make([]int, len(stalled))
	for i, sv := range stalled {
		waitsOn[i] = -1
		o := net.nextOutput(sv.node, sv.v)
		var blocker *refVC
		switch {
		case o.alloc == sv.flat:
			// Output granted: the head waits on downstream credit. Ejection
			// links always drain, so a stalled VC here implies o.ds != nil.
			if o.ds != nil {
				blocker = &o.ds.vcs[o.dsVC]
			}
		case o.alloc >= 0:
			// Output held by another packet until its tail passes.
			hp := sv.node.inputs[o.alloc/net.vcs]
			blocker = &hp.vcs[o.alloc%net.vcs]
		}
		if blocker != nil {
			if j, ok := idx[blocker]; ok {
				waitsOn[i] = j
			}
		}
	}
	// Functional graph (≤1 out-edge per vertex): follow the chains and look
	// for a vertex that reaches itself.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(stalled))
	for i := range stalled {
		if color[i] != white {
			continue
		}
		j := i
		for j >= 0 && color[j] == white {
			color[j] = grey
			j = waitsOn[j]
		}
		if j >= 0 && color[j] == grey {
			return true
		}
		k := i
		for k >= 0 && color[k] == grey {
			color[k] = black
			k = waitsOn[k]
		}
	}
	return false
}

// refFreeVC returns the lowest-index unowned VC of the input port, or -1.
func refFreeVC(ip *refInputPort) int {
	for k := range ip.vcs {
		if ip.vcs[k].owner == nil {
			return k
		}
	}
	return -1
}

// refZeroLoadLatencies is the pre-optimization oracle loop: one full network
// rebuild per flow.
func refZeroLoadLatencies(t *topology.Topology, cfg Config) ([]float64, error) {
	out := make([]float64, t.Design.NumFlows())
	for f := range t.Design.Flows {
		net, err := buildRefNetwork(t, cfg)
		if err != nil {
			return nil, err
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
