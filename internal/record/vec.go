package record

// Vec is a DRAM-resident vector of fixed-size records backed by one flat
// byte slice. Algorithms use it for their in-memory working sets (the
// budget M): a flat backing array keeps the Go garbage collector out of the
// measured path, per the reproduction note on GC obscuring write costs.
type Vec struct {
	data []byte
	size int // record size in bytes
	n    int // records
}

// NewVec returns a Vec for records of size bytes with capacity for
// capRecords records (it grows as needed).
func NewVec(size, capRecords int) *Vec {
	if size <= 0 {
		panic("record: non-positive record size")
	}
	return &Vec{data: make([]byte, 0, size*capRecords), size: size}
}

// Len reports the number of records.
func (v *Vec) Len() int { return v.n }

// RecordSize reports the per-record size in bytes.
func (v *Vec) RecordSize() int { return v.size }

// Bytes reports the payload size in bytes.
func (v *Vec) Bytes() int { return v.n * v.size }

// Append copies rec into the vector.
func (v *Vec) Append(rec []byte) {
	if len(rec) != v.size {
		panic("record: Vec.Append size mismatch")
	}
	v.data = append(v.data, rec...)
	v.n++
}

// AppendJoined appends the record a‖b, copying both halves straight
// into the vector: the concatenation needs no intermediate buffer.
func (v *Vec) AppendJoined(a, b []byte) {
	if len(a)+len(b) != v.size {
		panic("record: Vec.AppendJoined size mismatch")
	}
	v.data = append(append(v.data, a...), b...)
	v.n++
}

// AppendVec copies every record of src onto the end of v, preserving
// src's record order.
func (v *Vec) AppendVec(src *Vec) {
	if src.size != v.size {
		panic("record: Vec.AppendVec record size mismatch")
	}
	v.data = append(v.data, src.data...)
	v.n += src.n
}

// At returns record i. The slice aliases the vector's storage.
func (v *Vec) At(i int) []byte {
	return v.data[i*v.size : (i+1)*v.size : (i+1)*v.size]
}

// Set overwrites record i with rec.
func (v *Vec) Set(i int, rec []byte) {
	copy(v.data[i*v.size:(i+1)*v.size], rec)
}

// Reset empties the vector, keeping capacity.
func (v *Vec) Reset() {
	v.data = v.data[:0]
	v.n = 0
}
