package network

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPFabric implements Fabric over real TCP sockets (HPX's TCP parcelport
// analog) for the set of localities it hosts: every locality of an
// in-process runtime (NewTCPFabric) or the one locality of a cluster-mode
// process (NewPeerFabric). Each hosted locality has its own listener; any
// locality is dialed at its address-book entry — the listener's own address
// for a hosted one, whatever SetPeerAddr installed (configuration, the
// cluster join protocol, gossip as late joiners appear) for the others.
//
// A connection is dialed lazily, on the first send on its (src,dst) link,
// and opens with a hello (magic, protocol version, locality id, cluster
// size) that binds it to a peer identity before any frame is believed.
// Frames are a fixed header — uint32 source locality, uint32 payload length
// — followed by the payload; a frame whose source is not the hello's, or
// whose length exceeds maxPeerFrame, drops the connection. A destination
// with no installed address — or whose address refuses the dial — fails the
// send with ErrPeerUnreachable, which a reliability layer above treats as
// transient loss and retries.
type TCPFabric struct {
	n, self   int            // cluster size; lowest hosted locality
	listeners []net.Listener // by locality; nil where not hosted here
	handlers  []atomic.Pointer[Handler]

	// mu guards the address book and the two maps and nothing else: no
	// socket call — dial, hello, write — is made under it, so a slow or
	// silent peer cannot stall the other links or the accept loops, which
	// need it to register a connection before reading it.
	mu       sync.Mutex
	addrs    []string
	conns    map[linkKey]*tcpConn
	accepted map[net.Conn]struct{}
	wg       sync.WaitGroup

	closed atomic.Bool
	fault  atomic.Pointer[FaultHook]

	msgs, bytes, msgsIn, bytesIn, drops, dupes, delays, badHs atomic.Uint64
}

// PeerConfig configures the fabric of one cluster-mode process.
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
}

const (
	helloMagic   = 0xA9
	helloVersion = 1
	helloSize    = 10 // magic, version, u32 locality, u32 cluster size
	peerDialWait = 2 * time.Second

	// maxPeerFrame bounds a single frame's length as read off a socket;
	// anything larger is treated as stream corruption. The largest
	// coalesced bundles in use are 66 KiB (sixteen 4 KiB arguments), so
	// 64 MiB leaves three orders of magnitude of headroom.
	maxPeerFrame = 64 << 20
)

// NewTCPFabric creates a fabric hosting all n localities, each listening on
// an ephemeral 127.0.0.1 port, with the address book filled in.
func NewTCPFabric(n int) (*TCPFabric, error) {
	return listen(n, 0, n, "127.0.0.1:0")
}

// NewPeerFabric creates a fabric hosting cfg.Self alone. No peer addresses
// are known initially; install them with SetPeerAddr.
func NewPeerFabric(cfg PeerConfig) (*TCPFabric, error) {
	if cfg.Localities <= 0 || cfg.Self < 0 || cfg.Self >= cfg.Localities {
		return nil, fmt.Errorf("network: peer fabric self=%d n=%d invalid", cfg.Self, cfg.Localities)
	}
	bind := cfg.Bind
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	f, err := listen(cfg.Localities, cfg.Self, 1, bind)
	if err == nil && cfg.Advertise != "" {
		f.addrs[cfg.Self] = cfg.Advertise
	}
	return f, err
}

// listen binds one listener on bind for each of the count hosted
// localities from first up and starts accepting on each.
func listen(n, first, count int, bind string) (*TCPFabric, error) {
	f := &TCPFabric{
		n:         n,
		self:      first,
		listeners: make([]net.Listener, n),
		handlers:  make([]atomic.Pointer[Handler], n),
		addrs:     make([]string, n),
		conns:     make(map[linkKey]*tcpConn),
		accepted:  make(map[net.Conn]struct{}),
	}
	for id := first; id < first+count; id++ {
		l, err := net.Listen("tcp", bind)
		if err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("network: listen %q for locality %d: %w", bind, id, err)
		}
		f.listeners[id] = l
		f.addrs[id] = l.Addr().String()
	}
	// Accepting starts once the hosted set is complete: serve reads it.
	for id := first; id < first+count; id++ {
		f.wg.Add(1)
		go f.accept(id, f.listeners[id])
	}
	return f, nil
}

// hosts reports whether id, which must be in range, has a listener here.
func (f *TCPFabric) hosts(id int) bool { return f.listeners[id] != nil }

// Self returns the (lowest) hosted locality id.
func (f *TCPFabric) Self() int { return f.self }

// Addr returns the address other nodes should dial to reach locality
// Self (the advertise address, with ephemeral ports resolved).
func (f *TCPFabric) Addr() string { return f.PeerAddr(f.self) }

// SetPeerAddr installs (or updates) the dial address for a locality hosted
// elsewhere. Installing an address never disturbs an established
// connection; it takes effect at the next dial.
func (f *TCPFabric) SetPeerAddr(id int, addr string) error {
	if id < 0 || id >= f.n {
		return fmt.Errorf("%w: peer %d of %d", ErrBadLocality, id, f.n)
	}
	if f.hosts(id) || addr == "" {
		return nil
	}
	f.mu.Lock()
	f.addrs[id] = addr
	f.mu.Unlock()
	return nil
}

// PeerAddr returns the dial address of a locality ("" if unknown).
func (f *TCPFabric) PeerAddr(id int) string {
	if id < 0 || id >= f.n {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.addrs[id]
}

// Localities implements Fabric.
func (f *TCPFabric) Localities() int { return f.n }

// Model implements Fabric; real sockets have no synthetic cost model:
// per-message overhead is whatever the kernel socket path genuinely costs.
func (f *TCPFabric) Model() CostModel { return CostModel{} }

// SetHandler implements Fabric. Only hosted localities receive traffic in
// this process; handlers for other ids are rejected to catch miswired
// runtimes early.
func (f *TCPFabric) SetHandler(dst int, h Handler) {
	if dst < 0 || dst >= f.n || !f.hosts(dst) {
		panic(fmt.Sprintf("network: SetHandler(%d): not a locality this fabric hosts", dst))
	}
	f.handlers[dst].Store(&h)
}

// SetFaultHook installs (or, with nil, removes) a fault-injection hook,
// mirroring SimFabric.SetFaultHook. Drops skip the socket write entirely;
// duplicates write the frame twice; FaultDelay (and FaultReorder, which a
// byte-stream transport can only express as a delay — later frames
// overtake the delayed one) writes a copy of the frame from a timer
// goroutine after the extra latency. The hook is additionally consulted on
// receive, where only FaultDrop is honored, for frames whose source is not
// hosted here: their sender is another process, out of this hook's reach,
// and that is what lets one process's FaultPlan express a two-way
// partition. A frame from a hosted source met the hook when it was sent.
func (f *TCPFabric) SetFaultHook(h FaultHook) {
	if h == nil {
		f.fault.Store(nil)
		return
	}
	f.fault.Store(&h)
}

// BadHandshakes returns how many inbound connections were dropped for an
// invalid or mismatched hello, a frame claiming another source than the
// hello's, or a frame longer than maxPeerFrame.
func (f *TCPFabric) BadHandshakes() uint64 { return f.badHs.Load() }

// Stats implements Fabric.
func (f *TCPFabric) Stats() Stats {
	return Stats{
		MessagesSent:     f.msgs.Load(),
		BytesSent:        f.bytes.Load(),
		MessagesReceived: f.msgsIn.Load(),
		BytesReceived:    f.bytesIn.Load(),
		Dropped:          f.drops.Load(),
		Duplicated:       f.dupes.Load(),
		Delayed:          f.delays.Load(),
	}
}

// tcpConn is one cached outbound connection. wmu serializes whole frames
// on it, so concurrent senders on a link never interleave framing, and
// guards the frame scratch below.
type tcpConn struct {
	net.Conn
	wmu sync.Mutex
	wf  frameWriter
}

// frameWriter is the scratch for writing one framed message as a single
// writev. (*net.Buffers).WriteTo makes its receiver and everything it
// points at escape, so a header array, slice pair and net.Buffers value
// built per call are three heap allocations per frame; kept beside the
// connection, under the lock that already serializes its writes, they are
// none.
type frameWriter struct {
	hdr  [8]byte
	vec  [2][]byte
	bufs net.Buffers
}

// write sends the 8-byte header (source locality, payload length) and the
// payload on conn. The caller holds the lock that serializes writes on
// conn.
func (w *frameWriter) write(conn net.Conn, src int, payload []byte) error {
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(src))
	binary.LittleEndian.PutUint32(w.hdr[4:8], uint32(len(payload)))
	w.vec = [2][]byte{w.hdr[:], payload}
	w.bufs = w.vec[:] // WriteTo consumes bufs; vec keeps the backing array
	_, err := w.bufs.WriteTo(conn)
	w.vec[1] = nil // the caller's buffer: keep no reference past the call
	return err
}

// tcpReadBufferSize sizes a connection's read buffer, which exists for
// the 8-byte frame headers and for small frames: one read syscall drains a
// burst of them — the receive-side mirror of the vectored write. It is
// deliberately much smaller than a large coalesced message (a 16-parcel
// bundle of 4 KiB arguments is 66 KiB): a header read fills the whole
// buffer, so whatever it holds of the payload behind that header is copied
// a second time, and at 256 KiB that was four whole messages.
const tcpReadBufferSize = 4 << 10

// frameReader reads framed messages off one connection. The part of a
// payload that is not already in the read buffer is read from the
// connection straight into the pooled buffer the handler will own.
type frameReader struct {
	conn net.Conn
	br   *bufio.Reader
	hdr  [8]byte
}

func newFrameReader(conn net.Conn) *frameReader {
	return &frameReader{conn: conn, br: bufio.NewReaderSize(conn, tcpReadBufferSize)}
}

// header reads the next frame's source locality and payload length.
func (r *frameReader) header() (src int, n uint32, err error) {
	if _, err = io.ReadFull(r.br, r.hdr[:]); err != nil {
		return 0, 0, err
	}
	return int(binary.LittleEndian.Uint32(r.hdr[0:4])), binary.LittleEndian.Uint32(r.hdr[4:8]), nil
}

// payload reads the n payload bytes that follow a header into a pooled
// buffer, which the caller owns.
func (r *frameReader) payload(n uint32) ([]byte, error) {
	p := GetPayload(int(n))
	// Buffered bytes come first; Read copies them out without touching
	// the connection. Once the buffer is empty the rest of this payload is
	// all the stream holds up to the next header.
	k := min(len(p), r.br.Buffered())
	if k > 0 {
		k, _ = r.br.Read(p[:k]) // cannot fail: k bytes are buffered
	}
	if _, err := io.ReadFull(r.conn, p[k:]); err != nil {
		PutPayload(p)
		return nil, err
	}
	return p, nil
}

func (f *TCPFabric) accept(dst int, l net.Listener) {
	defer f.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		// Accepted connections are tracked so Close can tear them down: the
		// remote end belongs to the dialer, and one that never closes (or
		// lives in another process) would otherwise leave serve parked in
		// ReadFull forever and hang Close's wg.Wait.
		f.mu.Lock()
		if f.closed.Load() {
			f.mu.Unlock()
			_ = conn.Close()
			return
		}
		f.accepted[conn] = struct{}{}
		f.mu.Unlock()
		f.wg.Add(1)
		go f.serve(dst, conn)
	}
}

// serve validates the hello of one connection accepted for hosted locality
// dst, then reads frames until the connection dies or the fabric closes.
func (f *TCPFabric) serve(dst int, conn net.Conn) {
	defer f.wg.Done()
	defer func() {
		_ = conn.Close()
		f.mu.Lock()
		delete(f.accepted, conn)
		f.mu.Unlock()
	}()
	fr := newFrameReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	peer, ok := f.readHello(dst, fr.br)
	if !ok {
		f.badHs.Add(1)
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	remote := !f.hosts(peer)
	for {
		src, n, err := fr.header()
		if err != nil {
			return
		}
		if src != peer || n > maxPeerFrame {
			// A frame claiming a source other than the hello's identity (or
			// an absurd length) marks the stream hostile or corrupt; drop
			// the connection rather than believe it.
			f.badHs.Add(1)
			return
		}
		// Pooled receive buffer: the handler owns it and recycles it via
		// PutPayload after decoding.
		payload, err := fr.payload(n)
		if err != nil {
			return
		}
		if f.closed.Load() {
			PutPayload(payload)
			return
		}
		if remote {
			if hook := f.fault.Load(); hook != nil && (*hook)(src, dst, payload).Action == FaultDrop {
				f.drops.Add(1)
				PutPayload(payload)
				continue
			}
		}
		if hp := f.handlers[dst].Load(); hp != nil {
			f.msgsIn.Add(1)
			f.bytesIn.Add(uint64(len(payload)))
			(*hp)(src, payload)
		} else {
			PutPayload(payload)
		}
	}
}

// readHello reads the hello a connection to dst's listener opens with and
// returns the peer identity it claims: a locality of a cluster this size,
// other than dst itself (a self-send never reaches a socket).
func (f *TCPFabric) readHello(dst int, r io.Reader) (peer int, ok bool) {
	var h [helloSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil || h[0] != helloMagic || h[1] != helloVersion {
		return 0, false
	}
	peer = int(binary.LittleEndian.Uint32(h[2:6]))
	size := int(binary.LittleEndian.Uint32(h[6:10]))
	return peer, size == f.n && peer >= 0 && peer < f.n && peer != dst
}

// Send implements Fabric: SendBorrowed, then the payload — which the socket
// write (or the self-delivery) has copied — goes back to the pool on the
// caller's behalf. On error the caller retains ownership.
func (f *TCPFabric) Send(src, dst int, payload []byte) error {
	err := f.SendBorrowed(src, dst, payload)
	if err == nil {
		PutPayload(payload)
	}
	return err
}

// SendBorrowed transmits frame without taking ownership of it: the fabric
// reads frame only until the call returns, and the caller keeps the
// buffer whatever the outcome — the reliability layer sends its
// retransmission window's own buffers this way. src must be hosted here. A
// send to self delivers a copy inline (the runtime normally short-circuits
// local invocations above the fabric, but a reliability layer may still
// route self traffic here). Only a fault that outlives the call needs the
// bytes for longer, and takes a copy: FaultDelay and FaultReorder write
// from a timer goroutine. FaultDuplicate writes twice before returning and
// FaultDrop writes nothing; neither releases the frame.
func (f *TCPFabric) SendBorrowed(src, dst int, frame []byte) error {
	if f.closed.Load() {
		return ErrClosed
	}
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n || !f.hosts(src) {
		return fmt.Errorf("%w: src=%d dst=%d n=%d (src must be hosted)", ErrBadLocality, src, dst, f.n)
	}
	if dst == src {
		if hp := f.handlers[dst].Load(); hp != nil {
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
	duplicate := false
	if hook := f.fault.Load(); hook != nil {
		switch fault := (*hook)(src, dst, frame); fault.Action {
		case FaultDrop:
			f.drops.Add(1)
			return nil
		case FaultDuplicate:
			f.dupes.Add(1)
			duplicate = true
		case FaultDelay, FaultReorder:
			f.delays.Add(1)
			delay := fault.Delay
			if delay <= 0 {
				delay = DefaultFaultDelay
			}
			late := GetPayload(len(frame))
			copy(late, frame)
			// The timer goroutine is not tracked by the fabric's wait
			// group: firing after Close just recycles the copy, so Close
			// need not wait.
			time.AfterFunc(delay, func() {
				// Best effort: a late write on a dead connection is just
				// another injected loss.
				if !f.closed.Load() && f.writeFrame(src, dst, late) == nil {
					f.msgs.Add(1)
					f.bytes.Add(uint64(len(late)))
				}
				PutPayload(late)
			})
			return nil
		}
	}
	if err := f.writeFrame(src, dst, frame); err != nil {
		return err
	}
	if duplicate {
		_ = f.writeFrame(src, dst, frame) // a lost duplicate is no loss
	}
	f.msgs.Add(1)
	f.bytes.Add(uint64(len(frame)))
	return nil
}

// writeFrame frames and writes one message on the cached (dialing if
// needed) connection for the link. A write error closes the connection and
// evicts it from the cache so the next send redials instead of failing
// forever on a dead socket; the message itself is reported lost —
// redelivery is the reliability layer's job.
func (f *TCPFabric) writeFrame(src, dst int, payload []byte) error {
	conn, err := f.getConn(src, dst)
	if err != nil {
		return err
	}
	// Header and payload go out as one writev (net.Buffers) on the TCP
	// connection: a single syscall per message with no copy of the
	// payload into a combined frame buffer. The write may block on a full
	// socket, so only this connection's mutex is held across it.
	conn.wmu.Lock()
	err = conn.wf.write(conn.Conn, src, payload)
	conn.wmu.Unlock()
	if err != nil {
		// Evict the broken connection (only if it is still the cached
		// one — a concurrent sender may have already redialed).
		key := linkKey{src, dst}
		f.mu.Lock()
		if f.conns[key] == conn {
			delete(f.conns, key)
		}
		f.mu.Unlock()
		_ = conn.Close()
		return fmt.Errorf("network: tcp send %d->%d: %w", src, dst, err)
	}
	return nil
}

// getConn returns the cached connection for the link, dialing and sending
// the hello outside the fabric mutex when there is none. Two senders that
// dial the same link at once both succeed; the second to finish closes its
// connection and uses the cached one.
func (f *TCPFabric) getConn(src, dst int) (*tcpConn, error) {
	key := linkKey{src, dst}
	f.mu.Lock()
	c, ok := f.conns[key]
	f.mu.Unlock()
	if ok {
		return c, nil
	}
	// Failures are typed (transient, retryable) for the layers above, and
	// leave no stale slot behind: the cache is only populated on success.
	addr := f.PeerAddr(dst)
	if addr == "" {
		return nil, fmt.Errorf("%w: no address for locality %d", ErrPeerUnreachable, dst)
	}
	nc, err := net.DialTimeout("tcp", addr, peerDialWait)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %d->%d (%s): %v", ErrPeerUnreachable, src, dst, addr, err)
	}
	hello := [helloSize]byte{helloMagic, helloVersion}
	binary.LittleEndian.PutUint32(hello[2:6], uint32(src))
	binary.LittleEndian.PutUint32(hello[6:10], uint32(f.n))
	if _, err := nc.Write(hello[:]); err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("%w: handshake %d->%d: %v", ErrPeerUnreachable, src, dst, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		// Close may already have swept the map; a connection cached now
		// would never be closed.
		_ = nc.Close()
		return nil, ErrClosed
	}
	if c, ok := f.conns[key]; ok {
		_ = nc.Close()
		return c, nil
	}
	c = &tcpConn{Conn: nc}
	f.conns[key] = c
	return c, nil
}

// Close implements Fabric: every listener, dialed connection and accepted
// connection is closed, and all reader goroutines are awaited — a remote
// dialer that never hangs up cannot hang Close.
func (f *TCPFabric) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	f.mu.Lock()
	for _, c := range f.conns {
		_ = c.Close()
	}
	for c := range f.accepted {
		_ = c.Close()
	}
	f.mu.Unlock()
	for _, l := range f.listeners {
		if l != nil {
			_ = l.Close()
		}
	}
	f.wg.Wait()
	return nil
}
