package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"wlpm/internal/server"
)

// Stream builders: the grammar of internal/server/wire.go, by hand.

func headerLine(recSize int) string {
	return fmt.Sprintf("{\"header\":{\"record_size\":%d}}\n", recSize)
}

func endLine(rows int) string { return fmt.Sprintf("{\"end\":{\"rows\":%d}}\n", rows) }

// frame is a batch line and its payload: records first..first+n-1 of
// testRecords.
func frame(first, n, recSize int) string {
	return fmt.Sprintf("{\"batch\":%d}\n", n) + string(testRecords(first, n, recSize))
}

// testRecords is n records of recSize bytes, every byte a function of
// its position in the stream, newlines and quotes included.
func testRecords(first, n, recSize int) []byte {
	out := make([]byte, n*recSize)
	for i := range out {
		out[i] = byte((first*recSize + i) * 7)
	}
	return out
}

// stubTransport answers every request with one canned response.
type stubTransport struct {
	status int
	body   string
}

func (st stubTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: st.status, Header: make(http.Header), Body: io.NopCloser(strings.NewReader(st.body))}, nil
}

// query runs a query against a server that answers with body.
func query(status int, body string) (*Rows, error) {
	c := Dial("stub").WithHTTPClient(&http.Client{Transport: stubTransport{status, body}})
	return c.Session("t").Query("plan").Rows(context.Background())
}

// drain collects the stream's records through Next/Record.
func drain(r *Rows) []byte {
	var got []byte
	for r.Next() {
		got = append(got, r.Record()...)
	}
	return got
}

func TestRowsDecode(t *testing.T) {
	const rs = 24
	longExplain := `{"end":{"rows":3,"explain":{"root":"` + strings.Repeat("x", 3*4096) + `"}}}` + "\n"
	cases := []struct {
		name    string
		body    string
		openErr string // Rows fails with this
		want    []byte // records served before the stream stops
		err     string // Err after the drain; "" for a clean end
		errIs   error
	}{
		{name: "clean stream", body: headerLine(rs) + frame(0, 3, rs) + frame(3, 1, rs) + frame(4, 700, rs) + endLine(704),
			want: testRecords(0, 704, rs)},
		{name: "no rows", body: headerLine(rs) + endLine(0)},
		{name: "end line longer than the read buffer", body: headerLine(rs) + frame(0, 3, rs) + longExplain,
			want: testRecords(0, 3, rs)},
		{name: "bytes after the end line are not read", body: headerLine(rs) + frame(0, 2, rs) + endLine(2) + "garbage",
			want: testRecords(0, 2, rs)},
		{name: "frame truncated mid-record", body: headerLine(rs) + frame(0, 2, rs) + frame(2, 5, rs)[:len("{\"batch\":5}\n")+3*rs+7],
			want: testRecords(0, 2, rs), errIs: io.ErrUnexpectedEOF},
		{name: "frame announced, body ends", body: headerLine(rs) + "{\"batch\":4}\n",
			errIs: io.ErrUnexpectedEOF},
		{name: "frame over the cap", body: headerLine(rs) + fmt.Sprintf("{\"batch\":%d}\n", server.MaxFrameBytes/rs+1) + "xx",
			err: "frame limit"},
		{name: "frame size overflows int", body: headerLine(rs) + "{\"batch\":9223372036854775807}\n",
			err: "frame limit"},
		{name: "negative batch", body: headerLine(rs) + "{\"batch\":-3}\n", err: "not batch, end or error"},
		{name: "record size zero", body: headerLine(0) + endLine(0), openErr: "record size of 0"},
		{name: "record size negative", body: headerLine(-8) + endLine(0), openErr: "record size of -8"},
		{name: "record size over the frame cap", body: headerLine(server.MaxFrameBytes+1) + endLine(0), openErr: "record size"},
		{name: "error line first", body: "{\"error\":\"no such table\"}\n", openErr: "no such table"},
		{name: "no header", body: frame(0, 1, rs), openErr: "did not open with a header"},
		{name: "empty body", body: "", openErr: io.ErrUnexpectedEOF.Error()},
		{name: "error line after frames", body: headerLine(rs) + frame(0, 5, rs) + "{\"error\":\"device on fire\"}\n",
			want: testRecords(0, 5, rs), err: "device on fire"},
		{name: "body ends without end", body: headerLine(rs) + frame(0, 5, rs),
			want: testRecords(0, 5, rs), errIs: io.ErrUnexpectedEOF},
		{name: "body ends inside a control line", body: headerLine(rs) + frame(0, 5, rs) + `{"end":{"ro`,
			want: testRecords(0, 5, rs), errIs: io.ErrUnexpectedEOF},
		{name: "end count disagrees with the frames", body: headerLine(rs) + frame(0, 5, rs) + endLine(6),
			want: testRecords(0, 5, rs), err: "counts 6 rows"},
		{name: "control line is not JSON", body: headerLine(rs) + "batch 5\n", err: "bad control line"},
		{name: "over-long control line", body: headerLine(rs) + `{"error":"` + strings.Repeat("e", maxControlLine) + "\"}\n",
			err: "control line over"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := query(http.StatusOK, tc.body)
			if tc.openErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.openErr) {
					t.Fatalf("Rows error %v, want one mentioning %q", err, tc.openErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			if got := drain(rows); !bytes.Equal(got, tc.want) {
				t.Fatalf("served %d record bytes, want %d (or other bytes)", len(got), len(tc.want))
			}
			if rows.Next() || rows.Record() != nil {
				t.Fatal("cursor serves records past the end of the stream")
			}
			err = rows.Err()
			n, ended := rows.Rows()
			switch {
			case tc.errIs != nil:
				if !errors.Is(err, tc.errIs) {
					t.Fatalf("Err %v, want %v", err, tc.errIs)
				}
			case tc.err != "":
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Err %v, want one mentioning %q", err, tc.err)
				}
			case err != nil:
				t.Fatal(err)
			case !ended || int(n)*rs != len(tc.want) || rows.Explain() == nil:
				t.Fatalf("clean end reports %d rows (ended=%v), explain %v", n, ended, rows.Explain())
			}
			if err != nil && (ended || rows.Explain() != nil) {
				t.Fatal("failed stream reports an end line")
			}
		})
	}
}

// TestRowsHTTPError: a non-200 answer is the server's JSON error
// document, surfaced from Rows.
func TestRowsHTTPError(t *testing.T) {
	_, err := query(http.StatusServiceUnavailable, `{"error":"admission: no memory"}`)
	if err == nil || !strings.Contains(err.Error(), "admission: no memory") || !strings.Contains(err.Error(), "503") {
		t.Fatalf("error %v", err)
	}
}

// TestRowsScanAndClose covers the record accessors around the frame
// buffer: Scan's two forms, Record's validity window, Close mid-frame.
func TestRowsScanAndClose(t *testing.T) {
	const rs = 16
	rows, err := query(http.StatusOK, headerLine(rs)+frame(0, 4, rs)+endLine(4))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Record() != nil || rows.Scan(new(uint64)) == nil {
		t.Fatal("a record before the first Next")
	}
	if !rows.Next() || rows.RecordSize() != rs {
		t.Fatalf("no first record: %v", rows.Err())
	}
	want := testRecords(0, 1, rs)
	var a0, a1 uint64
	var whole []byte
	if err := rows.Scan(&a0, &a1); err != nil {
		t.Fatal(err)
	}
	if err := rows.Scan(&whole); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, want) || a0 != binary.LittleEndian.Uint64(want) || a1 != binary.LittleEndian.Uint64(want[8:]) {
		t.Fatalf("Scan gave %x / %d,%d for record %x", whole, a0, a1, want)
	}
	if err := rows.Scan(&a0, &a1, new(uint64)); err == nil {
		t.Fatal("Scan of three attributes from a 16-byte record succeeded")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() || rows.Record() != nil {
		t.Fatal("closed cursor still serves the rest of its frame")
	}
}

// referenceDecode is the grammar read the slow, obvious way from a
// whole stream in memory: the payload bytes if the stream is one the
// client must accept, ok=false otherwise. The client's resource limits
// are part of the grammar it accepts.
func referenceDecode(data []byte) (payload []byte, rows int64, ok bool) {
	line := func() (server.Line, bool) {
		var l server.Line
		i := bytes.IndexByte(data, '\n')
		if i < 0 || i+1 > maxControlLine {
			return l, false
		}
		text := data[:i+1]
		data = data[i+1:]
		return l, json.Unmarshal(text, &l) == nil
	}
	l, good := line()
	if !good || l.Error != "" || l.Header == nil || l.Header.RecordSize <= 0 || l.Header.RecordSize > server.MaxFrameBytes {
		return nil, 0, false
	}
	rs := l.Header.RecordSize
	for {
		l, good := line()
		switch {
		case !good:
			return nil, 0, false
		case l.Batch > 0:
			if l.Batch > server.MaxFrameBytes/rs || len(data) < l.Batch*rs {
				return nil, 0, false
			}
			payload = append(payload, data[:l.Batch*rs]...)
			data = data[l.Batch*rs:]
			rows += int64(l.Batch)
		case l.End != nil:
			return payload, rows, l.End.Rows == rows
		default:
			return nil, 0, false
		}
	}
}

// FuzzRowsDecode feeds the cursor arbitrary response bodies. Whatever
// arrives it must not panic, must not buffer more than the protocol's
// limits allow, and must agree with referenceDecode: the streams it
// accepts are exactly the well-formed ones, and it serves exactly the
// records they announce. The seed corpus is testdata/fuzz/FuzzRowsDecode.
func FuzzRowsDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantRows, wantOK := referenceDecode(data)

		rows, err := openRows(io.NopCloser(bytes.NewReader(data)))
		if err != nil {
			if wantOK {
				t.Fatalf("well-formed stream refused: %v", err)
			}
			return
		}
		defer rows.Close()
		var got []byte
		for rows.Next() {
			rec := rows.Record()
			if len(rec) != rows.RecordSize() {
				t.Fatalf("record of %d bytes in a stream of %d-byte records", len(rec), rows.RecordSize())
			}
			got = append(got, rec...)
		}
		if cap(rows.frame) > server.MaxFrameBytes || cap(rows.line) > 2*maxControlLine {
			t.Fatalf("buffers grew to %d frame / %d line bytes", cap(rows.frame), cap(rows.line))
		}
		if err := rows.Err(); err != nil {
			if wantOK {
				t.Fatalf("well-formed stream failed: %v", err)
			}
			return
		}
		n, ended := rows.Rows()
		if !wantOK || !ended || n != wantRows || !bytes.Equal(got, want) {
			t.Fatalf("accepted: %d rows announced (ended=%v), %d bytes served; reference: ok=%v, %d rows, %d bytes",
				n, ended, len(got), wantOK, wantRows, len(want))
		}
	})
}

const decodeRows, decodeRecSize, decodeFrame = 50_000, 32, 2048

// encodedStream is a 50k-row answer as the server frames it.
func encodedStream() []byte {
	var b bytes.Buffer
	b.WriteString(headerLine(decodeRecSize))
	for first := 0; first < decodeRows; first += decodeFrame {
		b.WriteString(frame(first, min(decodeFrame, decodeRows-first), decodeRecSize))
	}
	b.WriteString(endLine(decodeRows))
	return b.Bytes()
}

// decodeStream drains one pre-encoded answer through the cursor and
// returns a checksum, so the reads are not optimised away.
func decodeStream(tb testing.TB, stream []byte) (sum byte) {
	rows, err := openRows(io.NopCloser(bytes.NewReader(stream)))
	if err != nil {
		tb.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		sum += rows.Record()[0]
		n++
	}
	if err := rows.Err(); err != nil || n != decodeRows {
		tb.Fatalf("%d rows, err %v", n, err)
	}
	return sum
}

var decodeSink byte

func BenchmarkClientDecode(b *testing.B) {
	stream := encodedStream()
	b.ReportAllocs()
	b.SetBytes(decodeRows * decodeRecSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeSink += decodeStream(b, stream)
	}
}

// TestClientDecodeAllocs holds the cursor to its budget: a stream costs
// its readers, one frame buffer and a few allocations per control line
// (one per 2048 rows here) — nothing per row.
func TestClientDecodeAllocs(t *testing.T) {
	stream := encodedStream()
	allocs := testing.AllocsPerRun(5, func() { decodeSink += decodeStream(t, stream) })
	if perRow := allocs / decodeRows; perRow >= 0.01 {
		t.Fatalf("%.0f allocations for %d rows: %.3f per row, want 0", allocs, decodeRows, perRow)
	}
	t.Logf("%.0f allocations per %d-row stream", allocs, decodeRows)
}
