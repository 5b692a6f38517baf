package sim

import (
	"fmt"
	"math"

	"sunfloor3d/internal/geom"
	"sunfloor3d/internal/topology"
)

// Link kinds. Injection links carry flits from a source core's network
// interface to its switch, internal links connect two switches, and ejection
// links deliver flits from a switch to a destination core.
type linkKind int

const (
	linkInjection linkKind = iota
	linkInternal
	linkEjection
)

// link is one directed physical channel of the simulated network.
type link struct {
	id   int
	kind linkKind
	// from/to are switch IDs; from is -1 on injection links and to is -1 on
	// ejection links, where core identifies the attached core instead.
	from, to int
	core     int
	// stages is the number of pipeline stages the planar span of the link
	// requires at the operating frequency (noclib.LinkPipelineStages).
	stages int
	// deadAt is the cycle the link fails (Config.DeadLinks/FaultCycle);
	// neverDead for a healthy link. From that cycle on the upstream output
	// port forwards nothing onto the link; flits already in its pipeline
	// still arrive.
	deadAt int64

	busy int64 // cycles on which a flit was forwarded onto this link
}

// neverDead is the deadAt value of a link that never fails.
const neverDead = int64(math.MaxInt64)

// applyDeadLinks marks the links named by cfg.DeadLinks dead at
// cfg.FaultCycle. It is shared by both engines so the fault semantics cannot
// drift; a pair naming no inter-switch link of the topology is an error.
func applyDeadLinks(links []*link, cfg Config) error {
	if len(cfg.DeadLinks) == 0 {
		return nil
	}
	byPair := make(map[[2]int]*link)
	for _, l := range links {
		if l.kind == linkInternal {
			byPair[[2]int{l.from, l.to}] = l
		}
	}
	for _, dl := range cfg.DeadLinks {
		l, ok := byPair[dl]
		if !ok {
			return fmt.Errorf("sim: dead link %d->%d is not an inter-switch link of the topology", dl[0], dl[1])
		}
		l.deadAt = int64(cfg.FaultCycle)
	}
	return nil
}

// packet is one in-flight packet: PacketFlits flits following the committed
// route of its flow. Packets live in the network's arena and are referenced
// by index, so injecting a packet costs no heap allocation and delivering one
// returns its slot to the free list.
type packet struct {
	flow   int32
	flits  int32
	inject int64 // cycle the packet entered its source queue
	path   []int // committed switch path of the flow (aliases the topology)
}

// flit is one flow-control unit buffered in a virtual channel. pkt indexes
// the packet arena; readyAt models the link pipeline: the flit becomes
// visible to the downstream arbiter once the simulation clock reaches
// readyAt.
type flit struct {
	pkt     int32
	seq     int32 // 0 = head, pkt.flits-1 = tail
	readyAt int64
}

// vc is one virtual-channel buffer of a switch input port: a fixed-capacity
// ring of BufferFlits flits (the credit bound makes the ring exact, so the
// buffer never allocates after construction). A VC is owned by a single
// packet from the cycle its head flit is granted the upstream output (or NI)
// until its tail flit leaves the buffer; out caches the output port the
// packet requests at this switch, resolved once per hop when ownership is
// granted instead of once per flit inside the arbiter.
type vc struct {
	owner int32 // packet arena index, -1 when free
	hop   int32 // index of this input port's switch within owner's path
	out   int32 // output-port index within the switch, cached for the residency
	head  int32 // ring read position
	n     int32 // flits currently buffered
	// cwIdx is the circular-wait detector's transient index of this VC in its
	// stalled list (-1 outside a detection pass).
	cwIdx int32
	// lastMove is the last cycle a flit left this buffer (or the cycle the VC
	// was allocated); the deadlock detector treats a VC whose ready head has
	// not moved for a whole watchdog horizon as stalled.
	lastMove int64
	buf      []flit // capacity BufferFlits, sliced out of the network's backing
}

func (v *vc) front() flit { return v.buf[v.head] }

func (v *vc) push(f flit) {
	i := int(v.head) + int(v.n)
	if i >= len(v.buf) {
		i -= len(v.buf)
	}
	v.buf[i] = f
	v.n++
}

func (v *vc) pop() {
	v.head++
	if int(v.head) == len(v.buf) {
		v.head = 0
	}
	v.n--
}

// inputPort is one switch input port (the downstream end of a link) with its
// virtual channels. sw is the owning switch, needed to resolve a packet's
// next output port at the moment a VC is granted; VC k of the port is
// candidate base+k of the switch's flat (input port, VC) candidate list.
type inputPort struct {
	link *link
	sw   *switchNode
	base int32
	vcs  []vc
}

// outputPort is one switch output port (the upstream end of a link). Under
// wormhole switching the port is allocated to one packet from head to tail.
type outputPort struct {
	link *link
	// ds is the input port on the downstream switch (nil for ejection links).
	ds *inputPort
	// sw is the owning switch; id is the port's bit in the network's
	// active-port set, in (switch, port) order.
	sw *switchNode
	id int32
	// stages and deadAt are the link's pipeline depth and failure cycle,
	// copied here so a visit to the port loads the link only to count a
	// forwarded flit.
	stages int64
	deadAt int64
	// alloc is the index into the owning switch's flat candidate list of the
	// (input port, VC) currently holding this output, or -1 when free;
	// srcVC is the same VC resolved to a pointer at grant time, so the
	// per-cycle forward path needs no candidate lookup.
	alloc int32
	srcVC *vc
	// dsVC is the downstream VC reserved for the allocated packet.
	dsVC int32
	// rr is the round-robin arbitration pointer over the candidate list.
	rr int32
	// req is the request set: a bitset over the switch's candidate list
	// holding every VC whose buffered head flit requests this port and has
	// not been granted it yet. A bit is set when the head flit enters the
	// VC (it is then at the front, and stays there until the grant) and
	// cleared on grant, so the set holds exactly the candidates the
	// round-robin ring could grant once their head flit is out of the link
	// pipeline; waiters counts its members.
	req     []uint64
	waiters int32
}

// switchNode is one simulated switch. outTo and outEject are dense
// per-switch routing tables (indexed by next-hop switch ID and destination
// core ID respectively, -1 where no port exists) replacing the map lookups of
// the reference engine.
type switchNode struct {
	id      int
	inputs  []*inputPort
	outputs []*outputPort

	outTo    []int32
	outEject []int32

	// cands is the flat (input port, VC) candidate list: cands[ip.base+k]
	// is VC k of input port ip.
	cands []*vc

	// busyVCs counts input VCs currently owned by a packet: a switch with
	// none has no stalled VC, so the circular-wait detector skips it in one
	// comparison.
	busyVCs int32

	forwarded int64 // flits forwarded by this switch
}

// ni is the network interface of one source core: a growable ring deque of
// arena packet indices feeding the core's injection link one flit per cycle.
// The ring replaces the q = q[1:] reslice of the reference engine, which kept
// every delivered packet reachable through the queue's backing array.
type ni struct {
	core int
	link *link
	ds   *inputPort
	q    pktRing
	cur  int32 // arena index of the packet being streamed, -1 when idle
	seq  int32
	dsVC int32
}

// network is the static structure plus the dynamic state of one simulation.
// All dynamic state is index-based and arena-backed, so a network can be
// reset() and reused across runs (ZeroLoadLatencies simulates every flow on
// one build) and a steady-state cycle allocates nothing.
type network struct {
	top   *topology.Topology
	links []*link
	nodes []*switchNode
	// nis holds the source-core network interfaces, ordered by core index;
	// niOf maps a core index to its NI (nil when the core sources no flow).
	nis  []*ni
	niOf []*ni

	// ports lists every switch output port in (switch, port) order, and
	// active is the bitset over it of the ports with work: a packet holding
	// the port or a head flit requesting it. step visits only those.
	ports  []*outputPort
	active []uint64

	vcs         int
	bufring     int // buffer depth per VC, in flits
	packetFlits int

	// packets is the arena; free lists released slots for reuse.
	packets []packet
	free    []int32

	// flitBacking is the single allocation behind every VC ring.
	flitBacking []flit

	// Scratch buffers of the circular-wait detector, reused across checks.
	cwStalled []stalledVC
	cwWaits   []int32
	cwColor   []uint8
}

// stalledVC is one entry of the circular-wait detector's stalled list.
type stalledVC struct {
	v    *vc
	node *switchNode
	flat int32 // candidate index of v within its switch (output alloc space)
}

// allocPacket returns a free arena slot, growing the arena only when the
// free list is empty.
func (net *network) allocPacket() int32 {
	if k := len(net.free); k > 0 {
		id := net.free[k-1]
		net.free = net.free[:k-1]
		return id
	}
	net.packets = append(net.packets, packet{})
	return int32(len(net.packets) - 1)
}

// freePacket returns a delivered packet's slot to the arena free list.
func (net *network) freePacket(id int32) {
	net.free = append(net.free, id)
}

// buildNetwork instantiates the simulation structure for a routed topology.
// Every flow must carry a committed route (topology.Validate must pass).
func buildNetwork(t *topology.Topology, cfg Config) (*network, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("sim: topology not simulatable: %w", err)
	}
	net := &network{top: t, vcs: cfg.VCs, bufring: cfg.BufferFlits, packetFlits: cfg.PacketFlits}

	nodes := make([]*switchNode, t.NumSwitches())
	for i := range nodes {
		nodes[i] = &switchNode{
			id:       i,
			outTo:    newDenseTable(t.NumSwitches()),
			outEject: newDenseTable(t.Design.NumCores()),
		}
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
	attachInput := func(s int, l *link) *inputPort {
		base := int32(len(nodes[s].inputs) * cfg.VCs)
		p := &inputPort{link: l, sw: nodes[s], base: base, vcs: make([]vc, cfg.VCs)}
		nodes[s].inputs = append(nodes[s].inputs, p)
		return p
	}
	attachOutput := func(s int, l *link, ds *inputPort) int32 {
		o := &outputPort{link: l, ds: ds, sw: nodes[s], alloc: -1, dsVC: -1}
		nodes[s].outputs = append(nodes[s].outputs, o)
		return int32(len(nodes[s].outputs) - 1)
	}

	// Injection links, in core order (deterministic network layout).
	net.niOf = make([]*ni, t.Design.NumCores())
	for c := 0; c < t.Design.NumCores(); c++ {
		if !isSrc[c] {
			continue
		}
		sw := t.CoreAttach[c]
		planar := t.Design.Cores[c].Rect().Center()
		stages := t.Lib.LinkPipelineStages(geom.Manhattan(planar, t.Switches[sw].Pos), t.FreqMHz)
		l := addLink(&link{kind: linkInjection, from: -1, to: sw, core: c, stages: stages})
		in := attachInput(sw, l)
		n := &ni{core: c, link: l, ds: in, cur: -1, dsVC: -1}
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

	// Number the output ports in (switch, port) order and give each a
	// request set of one bit per candidate of its switch.
	for _, s := range nodes {
		nw := bitsetWords(len(s.inputs) * cfg.VCs)
		for _, o := range s.outputs {
			o.id = int32(len(net.ports))
			o.stages = int64(o.link.stages)
			o.deadAt = o.link.deadAt
			o.req = make([]uint64, nw)
			net.ports = append(net.ports, o)
		}
	}
	net.active = make([]uint64, bitsetWords(len(net.ports)))

	// One backing block for every VC ring: bounded, contiguous, allocated
	// once.
	totalPorts := 0
	for _, s := range nodes {
		totalPorts += len(s.inputs)
	}
	net.flitBacking = make([]flit, totalPorts*cfg.VCs*cfg.BufferFlits)
	off := 0
	for _, s := range nodes {
		s.cands = make([]*vc, 0, len(s.inputs)*cfg.VCs)
		for _, ip := range s.inputs {
			for k := range ip.vcs {
				ip.vcs[k].buf = net.flitBacking[off : off+cfg.BufferFlits : off+cfg.BufferFlits]
				off += cfg.BufferFlits
				s.cands = append(s.cands, &ip.vcs[k])
			}
		}
	}
	net.reset()
	return net, nil
}

// bitsetWords is the number of 64-bit words of a bitset over n members.
func bitsetWords(n int) int { return (n + 63) / 64 }

// newDenseTable returns a routing table of the given size with every entry
// empty (-1).
func newDenseTable(n int) []int32 {
	t := make([]int32, n)
	for i := range t {
		t[i] = -1
	}
	return t
}

// reset restores the network to its just-built state so it can be reused for
// another run: empty buffers, free ports, zeroed counters, empty arena. The
// static structure (links, ports, routing tables, ring capacities) is
// untouched.
func (net *network) reset() {
	for _, l := range net.links {
		l.busy = 0
	}
	for _, s := range net.nodes {
		s.forwarded = 0
		s.busyVCs = 0
		for _, ip := range s.inputs {
			for k := range ip.vcs {
				v := &ip.vcs[k]
				v.owner, v.hop, v.out = -1, 0, -1
				v.head, v.n = 0, 0
				v.cwIdx = -1
				v.lastMove = 0
			}
		}
		for _, o := range s.outputs {
			o.alloc, o.dsVC, o.rr, o.waiters = -1, -1, 0, 0
			o.srcVC = nil
			clear(o.req)
		}
	}
	clear(net.active)
	for _, n := range net.nis {
		n.q.reset()
		n.cur, n.seq, n.dsVC = -1, 0, -1
	}
	net.packets = net.packets[:0]
	net.free = net.free[:0]
}

// routeOutput resolves the output port the packet owning v requests at the
// given switch: the link towards the next switch of its path, or the ejection
// link of its destination core at the last hop. It is called once per hop —
// when the VC is granted to the packet — and cached in vc.out.
func (net *network) routeOutput(s *switchNode, v *vc) int32 {
	p := &net.packets[v.owner]
	if int(v.hop) == len(p.path)-1 {
		return s.outEject[net.top.Design.Flows[p.flow].Dst]
	}
	return s.outTo[p.path[v.hop+1]]
}
