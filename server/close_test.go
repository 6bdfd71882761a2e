package server

import (
	"bufio"
	"net"
	"testing"

	"vmshortcut"
	"vmshortcut/client"
	"vmshortcut/internal/wire"
)

// heldRepl is a synchronous replication source whose WaitShipped blocks
// until the test releases it, then reports the write shipped — what a
// real source reports when its last follower disconnects.
type heldRepl struct {
	entered, release chan struct{}
}

func (h *heldRepl) ServeConn(net.Conn, *bufio.Reader, *bufio.Writer, uint64, byte) error {
	return nil
}
func (h *heldRepl) SyncMode() bool  { return true }
func (h *heldRepl) LastLSN() uint64 { return 1 }
func (h *heldRepl) Counters() *wire.PrimaryReplCounters {
	return &wire.PrimaryReplCounters{}
}
func (h *heldRepl) WaitShipped(uint64) bool {
	close(h.entered)
	<-h.release
	return true
}

// TestSyncWriteFailsOnceForcedCloseBegins pins the ack rule across a
// forced close: closing connections also drops the followers' streams,
// which ends a synchronous write's wait as if shipped, so a wait that
// ends after the close began must fail the write, not acknowledge it.
func TestSyncWriteFailsOnceForcedCloseBegins(t *testing.T) {
	store, err := vmshortcut.Open(vmshortcut.KindHT, vmshortcut.WithConcurrency(true))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	repl := &heldRepl{entered: make(chan struct{}), release: make(chan struct{})}
	srv, err := New(Config{Store: store, Repl: repl, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	}()
	c, err := client.DialConn(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	putErr := make(chan error, 1)
	go func() { putErr <- c.Put(1, 1) }()
	<-repl.entered
	// The first step of a forced close, before any connection closes:
	// the client's connection stays open, so only the ack rule stands
	// between it and a false acknowledgement.
	srv.closed.Store(true)
	close(repl.release)
	if err := <-putErr; err == nil {
		t.Fatal("a write whose replication wait ended after the forced close began was acknowledged")
	}
}
