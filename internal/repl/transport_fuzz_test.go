package repl

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/oms"
)

// frameBytes renders a valid frame for the seed corpus.
func frameBytes(t *testing.F, f Frame) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeFrame(&b, f); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzReadFrame: parse arbitrary bytes as one wire frame. Whatever
// parses must re-encode byte-identically to the consumed prefix, and a
// hostile length prefix must be rejected before any allocation.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(f, Frame{Type: FrameHello, LSN: 42}))
	f.Add(frameBytes(f, Frame{Type: FrameSnapshot, LSN: 7, Payload: []byte(`{"objects":{}}`)}))
	f.Add(frameBytes(f, Frame{Type: FrameChanges, LSN: 9, Payload: []byte(`[{"lsn":1,"group":1,"kind":0,"oid":1,"class":"Cell"}]`)}))
	f.Add(frameBytes(f, Frame{Type: FrameHello, LSN: 1})[:5]) // truncated header
	short := frameBytes(f, Frame{Type: FrameChanges, LSN: 3, Payload: []byte(`[]`)})
	f.Add(short[:len(short)-1]) // truncated payload
	hostile := make([]byte, frameHeaderSize)
	hostile[0] = byte(FrameChanges)
	binary.BigEndian.PutUint32(hostile[9:13], 1<<31) // over maxFramePayload
	f.Add(hostile)
	f.Add(frameBytes(f, Frame{Type: FrameChanges, LSN: 9, Payload: oms.EncodeChanges([]oms.Change{
		{LSN: 1, Group: 1, Kind: oms.ChangeCreate, OID: 1, Class: "Cell", Attrs: map[string]oms.Value{
			"name": oms.S("alu"), "data": oms.Bytes([]byte{0, 1, 2})}},
		{LSN: 2, Group: 1, Kind: oms.ChangeLink, Rel: "hasVersion", From: 1, To: 2},
	})}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeFrame(&out, fr); err != nil {
			t.Fatalf("re-encoding a decoded frame: %v", err)
		}
		if got, want := out.Bytes(), data[:out.Len()]; !bytes.Equal(got, want) {
			t.Fatalf("round-trip mismatch:\n got %x\nwant %x", got, want)
		}
	})
}
