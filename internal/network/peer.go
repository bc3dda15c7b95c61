package network

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// PeerFabric implements Fabric for one locality of a multi-process
// cluster: unlike TCPFabric (which listens for every locality of an
// in-process runtime on pre-known ephemeral ports), a PeerFabric owns a
// single listener for its own locality and reaches the others through an
// explicit peer-address table filled in at runtime — by configuration,
// by the cluster join protocol, or by gossip as late joiners appear.
//
// Connections carry a hello handshake (magic, protocol version, cluster
// size, locality id) so an accepted connection is bound to a verified
// peer identity before any frame is believed; after the hello, framing is
// identical to TCPFabric's (uint32 source locality, uint32 payload
// length, payload), and every frame's source must match the hello or the
// connection is dropped. Dialing is lazy, on first send to a peer; a
// peer with no installed address — or whose address refuses the dial —
// fails the send with ErrPeerUnreachable, which a reliability layer above
// treats as transient loss and retries.
type PeerFabric struct {
	n    int
	self int

	ln        net.Listener
	advertise string
	handler   atomic.Pointer[Handler]

	mu       sync.Mutex
	addrs    []string
	conns    map[int]net.Conn
	accepted map[net.Conn]struct{}
	wf       frameWriter // writes happen under mu
	wg       sync.WaitGroup
	sockCore
	badHs atomic.Uint64
}

// PeerConfig configures one locality's PeerFabric.
type PeerConfig struct {
	// Localities is the cluster size (total locality count).
	Localities int
	// Self is the locality this process hosts.
	Self int
	// Bind is the listen address (default "127.0.0.1:0").
	Bind string
	// Advertise is the address other nodes dial to reach this one;
	// defaults to the resolved listen address. Set it when the bind
	// address is not reachable as-is (e.g. binding 0.0.0.0).
	Advertise string
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
}

const (
	helloMagic   = 0xA9
	helloVersion = 1
	helloSize    = 10 // magic, version, u32 locality, u32 cluster size
	peerDialWait = 2 * time.Second
)

// NewPeerFabric binds the listener and starts accepting. No peer
// addresses are known initially; install them with SetPeerAddr.
func NewPeerFabric(cfg PeerConfig) (*PeerFabric, error) {
	if cfg.Localities <= 0 || cfg.Self < 0 || cfg.Self >= cfg.Localities {
		return nil, fmt.Errorf("network: peer fabric self=%d n=%d invalid", cfg.Self, cfg.Localities)
	}
	bind := cfg.Bind
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("network: peer fabric listen %q: %w", bind, err)
	}
	f := &PeerFabric{
		n:         cfg.Localities,
		self:      cfg.Self,
		ln:        ln,
		advertise: cfg.Advertise,
		addrs:     make([]string, cfg.Localities),
		conns:     make(map[int]net.Conn),
		accepted:  make(map[net.Conn]struct{}),
	}
	if f.advertise == "" {
		f.advertise = ln.Addr().String()
	}
	f.addrs[cfg.Self] = f.advertise
	f.wg.Add(1)
	go f.accept()
	return f, nil
}

// Addr returns the address other nodes should dial to reach this
// locality (the advertise address, with ephemeral ports resolved).
func (f *PeerFabric) Addr() string { return f.advertise }

// Self returns the hosted locality id.
func (f *PeerFabric) Self() int { return f.self }

// SetPeerAddr installs (or updates) the dial address for a peer
// locality. Installing an address never disturbs an established
// connection; it takes effect at the next dial.
func (f *PeerFabric) SetPeerAddr(id int, addr string) error {
	if id < 0 || id >= f.n {
		return fmt.Errorf("%w: peer %d of %d", ErrBadLocality, id, f.n)
	}
	if id == f.self || addr == "" {
		return nil
	}
	f.mu.Lock()
	f.addrs[id] = addr
	f.mu.Unlock()
	return nil
}

// PeerAddr returns the installed address for a peer ("" if unknown).
func (f *PeerFabric) PeerAddr(id int) string {
	if id < 0 || id >= f.n {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.addrs[id]
}

// Localities implements Fabric.
func (f *PeerFabric) Localities() int { return f.n }

// Model implements Fabric; real sockets have no synthetic cost model.
func (f *PeerFabric) Model() CostModel { return CostModel{} }

// SetHandler implements Fabric. Only the hosted locality receives
// traffic in this process; handlers for other ids are rejected to catch
// miswired runtimes early.
func (f *PeerFabric) SetHandler(dst int, h Handler) {
	if dst != f.self {
		panic(fmt.Sprintf("network: peer fabric hosts locality %d, not %d", f.self, dst))
	}
	f.handler.Store(&h)
}

// SetFaultHook installs (or removes) a fault-injection hook, mirroring
// the other fabrics: drops skip the write, duplicates write twice,
// delays write a copy from a timer goroutine. The hook is additionally
// consulted on *receive* (as hook(peer, self, payload)), where only
// FaultDrop is honored — that is what lets a single process's FaultPlan
// express a two-way partition when the other end of the link belongs to
// a different process.
func (f *PeerFabric) SetFaultHook(h FaultHook) {
	if h == nil {
		f.fault.Store(nil)
		return
	}
	f.fault.Store(&h)
}

// BadHandshakes returns how many inbound connections were rejected for
// an invalid or mismatched hello.
func (f *PeerFabric) BadHandshakes() uint64 { return f.badHs.Load() }

func (f *PeerFabric) accept() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.mu.Lock()
		if f.closed.Load() {
			f.mu.Unlock()
			_ = conn.Close()
			return
		}
		f.accepted[conn] = struct{}{}
		f.mu.Unlock()
		f.wg.Add(1)
		go f.serve(conn)
	}
}

// serve validates one inbound connection's hello, then reads frames
// until the connection dies or the fabric closes.
func (f *PeerFabric) serve(conn net.Conn) {
	defer f.wg.Done()
	defer func() {
		_ = conn.Close()
		f.mu.Lock()
		delete(f.accepted, conn)
		f.mu.Unlock()
	}()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hello [helloSize]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		f.badHs.Add(1)
		return
	}
	peer, ok := f.checkHello(hello)
	if !ok {
		f.badHs.Add(1)
		return
	}
	_ = conn.SetReadDeadline(time.Time{})

	fr := newFrameReader(conn)
	for {
		src, n, err := fr.header()
		if err != nil {
			return
		}
		if src != peer || n > maxPeerFrame {
			// A frame claiming a source other than the authenticated hello
			// identity (or an absurd length) marks the stream hostile or
			// corrupt; drop the connection rather than believe it.
			f.badHs.Add(1)
			return
		}
		payload, err := fr.payload(n)
		if err != nil {
			return
		}
		if f.closed.Load() {
			PutPayload(payload)
			return
		}
		// Receive-side fault evaluation: a process can only apply
		// sender-side faults to its own outbound traffic, so a two-way
		// partition in a multi-process cluster needs the receiving end
		// to drop inbound frames from the partitioned peer as well. Only
		// FaultDrop is honored here — duplicate/delay/reorder remain
		// sender-side concerns.
		if hook := f.fault.Load(); hook != nil {
			if (*hook)(src, f.self, payload).Action == FaultDrop {
				f.drops.Add(1)
				PutPayload(payload)
				continue
			}
		}
		if hp := f.handler.Load(); hp != nil {
			f.msgsIn.Add(1)
			f.bytesIn.Add(uint64(len(payload)))
			(*hp)(src, payload)
		} else {
			PutPayload(payload)
		}
	}
}

// maxPeerFrame bounds a single frame arriving from the network; anything
// larger is treated as stream corruption. Coalesced bundles are tens of
// kilobytes; 64 MiB leaves three orders of magnitude of headroom.
const maxPeerFrame = 64 << 20

func (f *PeerFabric) checkHello(h [helloSize]byte) (int, bool) {
	if h[0] != helloMagic || h[1] != helloVersion {
		return 0, false
	}
	peer := int(binary.LittleEndian.Uint32(h[2:6]))
	size := int(binary.LittleEndian.Uint32(h[6:10]))
	if size != f.n || peer < 0 || peer >= f.n || peer == f.self {
		return 0, false
	}
	return peer, true
}

// Send implements Fabric: SendBorrowed, then the payload — which the
// socket write (or the self-delivery) has copied — goes back to the pool
// on the caller's behalf. On error the caller retains ownership.
func (f *PeerFabric) Send(src, dst int, payload []byte) error {
	err := f.SendBorrowed(src, dst, payload)
	if err == nil {
		PutPayload(payload)
	}
	return err
}

// SendBorrowed transmits frame without taking ownership of it, as
// TCPFabric.SendBorrowed does. src must be the hosted locality. A send to
// self delivers a copy inline (the runtime normally short-circuits local
// invocations above the fabric, but a reliability layer may still route
// self traffic here).
func (f *PeerFabric) SendBorrowed(src, dst int, frame []byte) error {
	if f.closed.Load() {
		return ErrClosed
	}
	if src != f.self || dst < 0 || dst >= f.n {
		return fmt.Errorf("%w: src=%d dst=%d (hosting %d of %d)", ErrBadLocality, src, dst, f.self, f.n)
	}
	if dst == f.self {
		if hp := f.handler.Load(); hp != nil {
			f.msgs.Add(1)
			f.bytes.Add(uint64(len(frame)))
			f.msgsIn.Add(1)
			f.bytesIn.Add(uint64(len(frame)))
			own := GetPayload(len(frame))
			copy(own, frame)
			(*hp)(src, own)
		}
		return nil
	}
	return f.sendBorrowed(f, src, dst, frame)
}

// writeFrame frames and writes one message on the cached (dialing if
// needed) connection toward dst. A write error evicts the connection so
// the next send redials; the message is reported lost to the caller.
func (f *PeerFabric) writeFrame(_, dst int, payload []byte) error {
	conn, err := f.getConn(dst)
	if err != nil {
		return err
	}
	f.mu.Lock()
	err = f.wf.write(conn, f.self, payload)
	if err != nil {
		if f.conns[dst] == conn {
			delete(f.conns, dst)
		}
		_ = conn.Close()
	}
	f.mu.Unlock()
	if err != nil {
		return fmt.Errorf("network: peer send %d->%d: %w", f.self, dst, err)
	}
	return nil
}

// getConn returns the established connection to dst, dialing and
// handshaking if none is cached. Dial failures and unknown addresses are
// ErrPeerUnreachable; no stale slot is left behind on failure.
func (f *PeerFabric) getConn(dst int) (net.Conn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.conns[dst]; ok {
		return c, nil
	}
	if f.closed.Load() {
		return nil, ErrClosed
	}
	addr := f.addrs[dst]
	if addr == "" {
		return nil, fmt.Errorf("%w: no address for locality %d", ErrPeerUnreachable, dst)
	}
	c, err := net.DialTimeout("tcp", addr, peerDialWait)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %d->%d (%s): %v", ErrPeerUnreachable, f.self, dst, addr, err)
	}
	var hello [helloSize]byte
	hello[0] = helloMagic
	hello[1] = helloVersion
	binary.LittleEndian.PutUint32(hello[2:6], uint32(f.self))
	binary.LittleEndian.PutUint32(hello[6:10], uint32(f.n))
	if _, err := c.Write(hello[:]); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("%w: handshake %d->%d: %v", ErrPeerUnreachable, f.self, dst, err)
	}
	f.conns[dst] = c
	return c, nil
}

// Close implements Fabric: the listener, every dialed connection and
// every accepted connection are closed, and all reader goroutines are
// awaited — a remote dialer that never hangs up cannot hang Close.
func (f *PeerFabric) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	_ = f.ln.Close()
	f.mu.Lock()
	for _, c := range f.conns {
		_ = c.Close()
	}
	for c := range f.accepted {
		_ = c.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
	return nil
}
