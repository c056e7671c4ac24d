package core

import (
	"errors"
	"testing"

	"harbor/internal/comm"
	"harbor/internal/tuple"
	"harbor/internal/wire"
)

func streamDesc() *tuple.Desc {
	return tuple.MustDesc("id",
		tuple.FieldDef{Name: "id", Type: tuple.Int64},
		tuple.FieldDef{Name: "v", Type: tuple.Int32},
	)
}

// fakeBuddy runs a server that reads the recovery-scan request off each
// connection and then plays the canned script.
func fakeBuddy(t *testing.T, serve func(c *comm.Conn)) string {
	t.Helper()
	srv, err := comm.Listen("127.0.0.1:0", comm.HandlerFunc(func(c *comm.Conn) {
		if _, err := c.Recv(); err != nil {
			return
		}
		serve(c)
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// A callback failure is the local replica's fault: it must surface as
// errLocalApply — NOT errBuddyFailed, which would make RecoverSite replan
// onto another buddy and fail the same way there. Full-row and keys-only
// streams classify alike.
func TestStreamFromClassifiesLocalApplyErrors(t *testing.T) {
	desc := streamDesc()
	b := tuple.NewBatch(1)
	b.Append(tuple.MustMake(desc, tuple.VInt(1), tuple.VInt(10)))
	frames := []*wire.Msg{
		{Type: wire.MsgTupleBatch, Count: 1, Raw: b.EncodeTo(desc, nil)},
		{Type: wire.MsgTupleBatch, Count: 1, Flags: wire.FlagYes, Raw: wire.AppendKeyRow(nil, 7, 42)},
	}
	boom := errors.New("page write failed")
	for _, frame := range frames {
		addr := fakeBuddy(t, func(c *comm.Conn) {
			_ = c.Send(frame)
			_ = c.Send(&wire.Msg{Type: wire.MsgScanEnd, Count: 1})
		})
		err := (&Recoverer{}).streamFrom(addr,
			&wire.Msg{Type: wire.MsgRecoveryScan, Table: 1, Flags: frame.Flags}, desc,
			func([]int64, []tuple.Timestamp) error { return boom },
			func([]tuple.Tuple) error { return boom })
		if !errors.Is(err, errLocalApply) {
			t.Fatalf("apply failure (frame flags %d) not classified as errLocalApply: %v", frame.Flags, err)
		}
		if errors.Is(err, errBuddyFailed) {
			t.Fatalf("apply failure (frame flags %d) misclassified as buddy failure: %v", frame.Flags, err)
		}
	}
}

// A connection dying mid-stream is the buddy's fault: errBuddyFailed, so
// the caller replans. Frames received before the failure must have been
// applied — recovery applies are idempotent, progress is never discarded.
func TestStreamFromClassifiesBuddyTransportErrors(t *testing.T) {
	addr := fakeBuddy(t, func(c *comm.Conn) {
		_ = c.Send(&wire.Msg{Type: wire.MsgTupleBatch, Count: 1,
			Flags: wire.FlagYes, Raw: wire.AppendKeyRow(nil, 7, 42)})
		c.Close() // no MsgScanEnd: buddy died mid-stream
	})
	var gotKeys []int64
	var gotDels []tuple.Timestamp
	err := (&Recoverer{}).streamFrom(addr,
		&wire.Msg{Type: wire.MsgRecoveryScan, Table: 1, Flags: wire.FlagYes}, streamDesc(),
		func(keys []int64, dels []tuple.Timestamp) error {
			gotKeys = append(gotKeys, keys...)
			gotDels = append(gotDels, dels...)
			return nil
		}, nil)
	if !errors.Is(err, errBuddyFailed) {
		t.Fatalf("mid-stream disconnect not classified as errBuddyFailed: %v", err)
	}
	if errors.Is(err, errLocalApply) {
		t.Fatalf("transport failure misclassified as local apply: %v", err)
	}
	if len(gotKeys) != 1 || gotKeys[0] != 7 || gotDels[0] != 42 {
		t.Fatalf("pre-failure frame not applied: keys=%v dels=%v", gotKeys, gotDels)
	}
}

// A frame whose payload length disagrees with its row count is corrupt
// buddy output: retryable against a different replica.
func TestStreamFromRejectsMalformedFrames(t *testing.T) {
	addr := fakeBuddy(t, func(c *comm.Conn) {
		_ = c.Send(&wire.Msg{Type: wire.MsgTupleBatch, Count: 3,
			Flags: wire.FlagYes, Raw: make([]byte, wire.KeysOnlyStride)})
	})
	err := (&Recoverer{}).streamFrom(addr,
		&wire.Msg{Type: wire.MsgRecoveryScan, Table: 1, Flags: wire.FlagYes}, streamDesc(),
		func([]int64, []tuple.Timestamp) error { return nil }, nil)
	if !errors.Is(err, errBuddyFailed) {
		t.Fatalf("malformed frame not classified as errBuddyFailed: %v", err)
	}
}

// A remote MsgErr is an application-level answer (unknown table, bad
// predicate): it passes through unwrapped so it hits neither the replan
// path nor the abort-recovery path by sentinel.
func TestStreamFromPassesRemoteErrorsUnwrapped(t *testing.T) {
	addr := fakeBuddy(t, func(c *comm.Conn) {
		_ = c.Send(&wire.Msg{Type: wire.MsgErr, Text: "no such table"})
	})
	err := (&Recoverer{}).streamFrom(addr,
		&wire.Msg{Type: wire.MsgRecoveryScan, Table: 99, Flags: wire.FlagYes}, streamDesc(),
		func([]int64, []tuple.Timestamp) error { return nil }, nil)
	if err == nil {
		t.Fatal("remote error lost")
	}
	if errors.Is(err, errBuddyFailed) || errors.Is(err, errLocalApply) {
		t.Fatalf("remote error wrongly wrapped: %v", err)
	}
}
