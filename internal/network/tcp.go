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

// TCPFabric implements Fabric over real loopback TCP sockets, validating
// that the parcel subsystem works over a genuine byte-stream transport
// (HPX's TCP parcelport analog). Messages are framed as a fixed header —
// uint32 source locality, uint32 payload length — followed by the payload.
//
// TCPFabric applies no cost model; per-message overhead is whatever the
// kernel socket path genuinely costs.
type TCPFabric struct {
	n         int
	listeners []net.Listener
	handlers  []atomic.Pointer[Handler]

	// mu guards the two maps and nothing else: no socket call is made
	// under it, so a slow link cannot stall the others or the accept
	// loops, which need it to register a connection before reading it.
	mu       sync.Mutex
	conns    map[linkKey]*tcpConn
	accepted map[net.Conn]struct{}
	wg       sync.WaitGroup
	sockCore
}

// sockCore is the state the two socket fabrics share besides framing: the
// closed flag, the fault hook and the traffic counts.
type sockCore struct {
	closed atomic.Bool
	fault  atomic.Pointer[FaultHook]

	msgs, bytes, msgsIn, bytesIn, drops, dupes, delays atomic.Uint64
}

// Stats implements Fabric.
func (s *sockCore) Stats() Stats {
	return Stats{
		MessagesSent:     s.msgs.Load(),
		BytesSent:        s.bytes.Load(),
		MessagesReceived: s.msgsIn.Load(),
		BytesReceived:    s.bytesIn.Load(),
		Dropped:          s.drops.Load(),
		Duplicated:       s.dupes.Load(),
		Delayed:          s.delays.Load(),
	}
}

// linkWriter is the half of a socket fabric sendBorrowed drives: one
// framed write on the (dialing if needed) connection of a link.
type linkWriter interface {
	writeFrame(src, dst int, frame []byte) error
}

// sendBorrowed is SendBorrowed for both socket fabrics, past their own
// argument checks: it applies the fault hook's verdict and writes frame
// with w, and frame stays the caller's. Only a fault that outlives the
// call needs the bytes for longer, and takes a copy: FaultDelay and
// FaultReorder write from a timer goroutine. FaultDuplicate writes twice
// before returning and FaultDrop writes nothing; neither releases the
// frame.
func (st *sockCore) sendBorrowed(w linkWriter, src, dst int, frame []byte) error {
	duplicate := false
	if hook := st.fault.Load(); hook != nil {
		switch fault := (*hook)(src, dst, frame); fault.Action {
		case FaultDrop:
			st.drops.Add(1)
			return nil
		case FaultDuplicate:
			st.dupes.Add(1)
			duplicate = true
		case FaultDelay, FaultReorder:
			st.delays.Add(1)
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
				if !st.closed.Load() && w.writeFrame(src, dst, late) == nil {
					st.msgs.Add(1)
					st.bytes.Add(uint64(len(late)))
				}
				PutPayload(late)
			})
			return nil
		}
	}
	if err := w.writeFrame(src, dst, frame); err != nil {
		return err
	}
	if duplicate {
		_ = w.writeFrame(src, dst, frame) // a lost duplicate is no loss
	}
	st.msgs.Add(1)
	st.bytes.Add(uint64(len(frame)))
	return nil
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

// NewTCPFabric creates a TCP fabric connecting n localities, each
// listening on an ephemeral 127.0.0.1 port. Connections between pairs are
// established lazily on first send.
func NewTCPFabric(n int) (*TCPFabric, error) {
	f := &TCPFabric{
		n:         n,
		listeners: make([]net.Listener, n),
		handlers:  make([]atomic.Pointer[Handler], n),
		conns:     make(map[linkKey]*tcpConn),
		accepted:  make(map[net.Conn]struct{}),
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("network: listen for locality %d: %w", i, err)
		}
		f.listeners[i] = l
		f.wg.Add(1)
		go f.accept(i, l)
	}
	return f, nil
}

func (f *TCPFabric) accept(dst int, l net.Listener) {
	defer f.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		// Accepted connections are tracked so Close can tear them down:
		// the remote end of an accepted conn belongs to the dialer, and a
		// dialer that never closes (or lives in another process) would
		// otherwise leave the readLoop parked in ReadFull forever and hang
		// Close's wg.Wait.
		f.mu.Lock()
		if f.closed.Load() {
			f.mu.Unlock()
			_ = conn.Close()
			return
		}
		f.accepted[conn] = struct{}{}
		f.mu.Unlock()
		f.wg.Add(1)
		go f.readLoop(dst, conn)
	}
}

func (f *TCPFabric) readLoop(dst int, conn net.Conn) {
	defer f.wg.Done()
	defer func() {
		_ = conn.Close()
		f.mu.Lock()
		delete(f.accepted, conn)
		f.mu.Unlock()
	}()
	fr := newFrameReader(conn)
	for {
		src, n, err := fr.header()
		if err != nil {
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
		if hp := f.handlers[dst].Load(); hp != nil {
			f.msgsIn.Add(1)
			f.bytesIn.Add(uint64(len(payload)))
			(*hp)(src, payload)
		} else {
			PutPayload(payload)
		}
	}
}

// Localities implements Fabric.
func (f *TCPFabric) Localities() int { return f.n }

// Model implements Fabric; real sockets have no synthetic model.
func (f *TCPFabric) Model() CostModel { return CostModel{} }

// SetHandler implements Fabric.
func (f *TCPFabric) SetHandler(dst int, h Handler) {
	if dst < 0 || dst >= f.n {
		panic(fmt.Sprintf("network: SetHandler(%d) out of range", dst))
	}
	f.handlers[dst].Store(&h)
}

// SetFaultHook installs (or, with nil, removes) a fault-injection hook,
// mirroring SimFabric.SetFaultHook. Drops skip the socket write entirely;
// duplicates write the frame twice; FaultDelay (and FaultReorder, which a
// byte-stream transport can only express as a delay — later frames
// overtake the delayed one) writes a copy of the frame from a timer
// goroutine after the extra latency.
func (f *TCPFabric) SetFaultHook(h FaultHook) {
	if h == nil {
		f.fault.Store(nil)
		return
	}
	f.fault.Store(&h)
}

// Send implements Fabric: SendBorrowed, then the payload — which the socket
// write has copied — goes back to the pool on the caller's behalf. On
// error the caller retains ownership.
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
// retransmission window's own buffers this way. Writes on a given
// (src,dst) pair are serialized by the connection's write mutex, so
// framing is never interleaved. A dial or write error evicts the cached
// connection (closing it) so the next send redials instead of failing
// forever on a dead socket; the message itself is reported lost —
// redelivery is the reliability layer's job.
func (f *TCPFabric) SendBorrowed(src, dst int, frame []byte) error {
	if f.closed.Load() {
		return ErrClosed
	}
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		return fmt.Errorf("%w: src=%d dst=%d n=%d", ErrBadLocality, src, dst, f.n)
	}
	return f.sendBorrowed(f, src, dst, frame)
}

// writeFrame frames and writes one message on the cached (dialing if
// needed) connection for the link. On a write error the connection is
// closed and evicted from the cache so the next attempt redials.
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

// getConn returns the cached connection for the link, dialing outside
// the fabric mutex when there is none. Two senders that dial the same
// link at once both succeed; the second to finish closes its connection
// and uses the cached one.
func (f *TCPFabric) getConn(src, dst int) (*tcpConn, error) {
	key := linkKey{src, dst}
	f.mu.Lock()
	c, ok := f.conns[key]
	f.mu.Unlock()
	if ok {
		return c, nil
	}
	if f.closed.Load() {
		return nil, ErrClosed
	}
	nc, err := net.Dial("tcp", f.listeners[dst].Addr().String())
	if err != nil {
		// Typed so layers above can classify a dead or not-yet-listening
		// peer (transient, retryable) without string matching. No stale
		// slot is left behind: the cache is only populated on success.
		return nil, fmt.Errorf("%w: dial %d->%d: %v", ErrPeerUnreachable, src, dst, err)
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

// Close implements Fabric, closing all listeners and connections and
// waiting for reader goroutines to exit.
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
