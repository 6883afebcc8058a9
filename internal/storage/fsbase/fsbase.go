// Package fsbase implements the miniature filesystem behind the two
// filesystem-flavoured persistence layers of the paper (§3.2): the RAM
// disk (block-granularity access, 512-byte sectors) and the PMFS-like
// byte-addressable filesystem. Each is a Profile value (RAMDisk, PMFS)
// selecting the access granularity, metadata write granularity and
// software-path call overhead; everything else — superblock, inode
// table, extent allocation, file read/write — is common, and New turns a
// formatted volume into a storage.Factory whose collections are files.
//
// On-device layout:
//
//	[0, SuperblockSize)            superblock
//	[SuperblockSize, dataOff)      inode table (NInodes × InodeSize)
//	[dataOff, capacity)            data area, allocated in extents
//
// Files are extent lists: up to DirectExtents extents live in the inode; a
// single indirect extent block extends that for large files. Extent sizes
// double per file from Profile.MinExtent up to Profile.MaxExtent, the
// usual filesystem-preallocation growth policy.
package fsbase

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"wlpm/internal/pmem"
)

// Fixed layout constants.
const (
	SuperblockSize = 512
	InodeSize      = 512
	NInodes        = 512
	DirectExtents  = 24
	// IndirectCap is the number of extents in the single indirect block.
	IndirectCap = 256

	magic = 0x574c504d_46530001 // "WLPMFS" v1
)

// Profile captures how a concrete filesystem flavour touches the device.
type Profile struct {
	// Name of the flavour ("ramdisk", "pmfs").
	Name string
	// Granularity is the unit of data I/O in bytes: 512 for the sector
	// RAM disk, 1 for byte-addressable PMFS.
	Granularity int
	// CallOverhead is software-path time charged per filesystem call
	// (syscall and filesystem code), via pmem.Device.ChargeSoftware.
	CallOverhead time.Duration
	// InodeWriteWhole makes every inode update persist the entire inode
	// (sector-granularity metadata, RAM disk); otherwise only the changed
	// fields are written (byte-granularity metadata, PMFS).
	InodeWriteWhole bool
	// SizeUpdateEveryAppend persists the inode size field on every append
	// (PMFS's fine-grained persistence primitives); otherwise size is
	// persisted when extents change and on Sync (block filesystems batch
	// metadata).
	SizeUpdateEveryAppend bool
	// MinExtent and MaxExtent bound the doubling extent-allocation policy.
	MinExtent int64
	MaxExtent int64
}

func (p *Profile) setDefaults() error {
	if p.Granularity <= 0 {
		return fmt.Errorf("fsbase: granularity must be positive")
	}
	if p.MinExtent == 0 {
		p.MinExtent = 8 << 10
	}
	if p.MaxExtent == 0 {
		p.MaxExtent = 16 << 20
	}
	if p.MinExtent > p.MaxExtent {
		return fmt.Errorf("fsbase: MinExtent %d > MaxExtent %d", p.MinExtent, p.MaxExtent)
	}
	return nil
}

type extent struct{ off, size int64 }

type inode struct {
	used     bool
	size     int64
	extents  []extent // direct + indirect, in order
	indirOff int64    // device offset of the indirect block, 0 if none
}

// FS is a formatted filesystem instance. Create and Remove are safe for
// concurrent use (mu guards the inode directory and the name index); file
// data paths are not synchronized — each open file has a single owner, as
// with the other persistence layers.
type FS struct {
	dev     *pmem.Device
	prof    Profile
	alloc   *pmem.Allocator
	dataOff int64

	mu     sync.Mutex
	inodes [NInodes]inode
	byName map[string]int
}

// Format creates a fresh filesystem occupying all of dev.
func Format(dev *pmem.Device, prof Profile) (*FS, error) {
	if err := prof.setDefaults(); err != nil {
		return nil, err
	}
	dataOff := int64(SuperblockSize + NInodes*InodeSize)
	if dev.Capacity() <= dataOff+prof.MinExtent {
		return nil, fmt.Errorf("fsbase: device too small (%d bytes) for filesystem metadata (%d) plus data", dev.Capacity(), dataOff)
	}
	fs := &FS{
		dev:     dev,
		prof:    prof,
		alloc:   pmem.NewAllocatorRange(dev, dataOff, dev.Capacity()),
		byName:  make(map[string]int),
		dataOff: dataOff,
	}
	var sb [SuperblockSize]byte
	binary.LittleEndian.PutUint64(sb[0:], magic)
	binary.LittleEndian.PutUint64(sb[8:], uint64(dev.Capacity()))
	binary.LittleEndian.PutUint64(sb[16:], uint64(NInodes))
	binary.LittleEndian.PutUint64(sb[24:], uint64(dataOff))
	if err := dev.WriteAt(sb[:], 0); err != nil {
		return nil, err
	}
	return fs, nil
}

func (fs *FS) charge() { fs.dev.ChargeSoftware(fs.prof.CallOverhead) }

// inodeOff is the device offset of inode idx.
func (fs *FS) inodeOff(idx int) int64 {
	return SuperblockSize + int64(idx)*InodeSize
}

// persistInode writes inode metadata according to the flavour's
// granularity. fields selects what changed when fine-grained writes are
// possible; coarse flavours rewrite the whole inode.
func (fs *FS) persistInode(idx int, fields ...inodeField) error {
	ino := &fs.inodes[idx]
	base := fs.inodeOff(idx)
	if fs.prof.InodeWriteWhole {
		var buf [InodeSize]byte
		encodeInode(ino, buf[:])
		if err := fs.dev.WriteAt(buf[:], base); err != nil {
			return err
		}
		// Indirect extent entries live outside the inode sector and must
		// be persisted separately even in whole-inode mode.
		for _, f := range fields {
			if f.kind != fieldExtent || f.i < DirectExtents {
				continue
			}
			var e [16]byte
			binary.LittleEndian.PutUint64(e[:8], uint64(ino.extents[f.i].off))
			binary.LittleEndian.PutUint64(e[8:], uint64(ino.extents[f.i].size))
			if err := fs.dev.WriteAt(e[:], ino.indirOff+int64(f.i-DirectExtents)*16); err != nil {
				return err
			}
		}
		return nil
	}
	var scratch [16]byte
	for _, f := range fields {
		switch f.kind {
		case fieldUsed:
			v := uint64(0)
			if ino.used {
				v = 1
			}
			binary.LittleEndian.PutUint64(scratch[:8], v)
			if err := fs.dev.WriteAt(scratch[:8], base); err != nil {
				return err
			}
		case fieldSize:
			binary.LittleEndian.PutUint64(scratch[:8], uint64(ino.size))
			if err := fs.dev.WriteAt(scratch[:8], base+8); err != nil {
				return err
			}
		case fieldExtent:
			binary.LittleEndian.PutUint64(scratch[:8], uint64(ino.extents[f.i].off))
			binary.LittleEndian.PutUint64(scratch[8:], uint64(ino.extents[f.i].size))
			if f.i < DirectExtents {
				if err := fs.dev.WriteAt(scratch[:16], base+32+int64(f.i)*16); err != nil {
					return err
				}
			} else {
				slot := int64(f.i - DirectExtents)
				if err := fs.dev.WriteAt(scratch[:16], ino.indirOff+slot*16); err != nil {
					return err
				}
			}
		case fieldIndirect:
			binary.LittleEndian.PutUint64(scratch[:8], uint64(ino.indirOff))
			if err := fs.dev.WriteAt(scratch[:8], base+24); err != nil {
				return err
			}
		}
	}
	return nil
}

type inodeFieldKind int

const (
	fieldUsed inodeFieldKind = iota
	fieldSize
	fieldExtent
	fieldIndirect
)

type inodeField struct {
	kind inodeFieldKind
	i    int
}

// encodeInode serializes ino into a full InodeSize buffer (direct extents
// only; indirect extents live in their own block).
func encodeInode(ino *inode, buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
	if ino.used {
		binary.LittleEndian.PutUint64(buf[0:], 1)
	}
	binary.LittleEndian.PutUint64(buf[8:], uint64(ino.size))
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(ino.extents)))
	binary.LittleEndian.PutUint64(buf[24:], uint64(ino.indirOff))
	for i, e := range ino.extents {
		if i >= DirectExtents {
			break
		}
		binary.LittleEndian.PutUint64(buf[32+i*16:], uint64(e.off))
		binary.LittleEndian.PutUint64(buf[32+i*16+8:], uint64(e.size))
	}
}

// Create makes an empty file.
func (fs *FS) Create(name string) (*File, error) {
	fs.charge()
	if name == "" {
		return nil, fmt.Errorf("%s: empty file name", fs.prof.Name)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.byName[name]; ok {
		return nil, fmt.Errorf("%s: file %q exists", fs.prof.Name, name)
	}
	idx := -1
	for i := range fs.inodes {
		if !fs.inodes[i].used {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("%s: out of inodes (%d files)", fs.prof.Name, NInodes)
	}
	fs.inodes[idx] = inode{used: true}
	fs.byName[name] = idx
	if err := fs.persistInode(idx, inodeField{kind: fieldUsed}, inodeField{kind: fieldSize}); err != nil {
		return nil, err
	}
	return &File{fs: fs, idx: idx, name: name}, nil
}

// Remove deletes a file and frees its extents.
func (fs *FS) Remove(name string) error {
	fs.charge()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	idx, ok := fs.byName[name]
	if !ok {
		return fmt.Errorf("%s: no such file %q", fs.prof.Name, name)
	}
	if err := fs.freeExtents(idx); err != nil {
		return err
	}
	fs.inodes[idx] = inode{}
	delete(fs.byName, name)
	return fs.persistInode(idx, inodeField{kind: fieldUsed}, inodeField{kind: fieldSize})
}

func (fs *FS) freeExtents(idx int) error {
	ino := &fs.inodes[idx]
	offs := make([]int64, len(ino.extents))
	for i, e := range ino.extents {
		offs[i] = e.off
	}
	if err := fs.alloc.FreeAll(offs); err != nil {
		return err
	}
	ino.extents = nil
	if ino.indirOff != 0 {
		if err := fs.alloc.Free(ino.indirOff); err != nil {
			return err
		}
		ino.indirOff = 0
	}
	return nil
}

// File is an open file handle.
type File struct {
	fs   *FS
	idx  int
	name string
}

// Name reports the file name.
func (f *File) Name() string { return f.name }

// Size reports the logical file size in bytes.
func (f *File) Size() int64 { return f.fs.inodes[f.idx].size }

// capacityBytes is the sum of the file's extent sizes.
func (f *File) capacityBytes() int64 {
	var c int64
	for _, e := range f.fs.inodes[f.idx].extents {
		c += e.size
	}
	return c
}

// addExtent grows the file by one extent following the doubling policy.
func (f *File) addExtent() error {
	fs := f.fs
	ino := &fs.inodes[f.idx]
	size := fs.prof.MinExtent
	if n := len(ino.extents); n > 0 {
		size = min(ino.extents[n-1].size*2, fs.prof.MaxExtent)
	}
	if len(ino.extents) >= DirectExtents+IndirectCap {
		return fmt.Errorf("%s: file %q exceeds maximum extents", fs.prof.Name, f.name)
	}
	// Extents are aligned to the I/O granularity so sector rounding in
	// writeChunk/readChunk never crosses an extent boundary.
	off, err := fs.alloc.AllocAligned(size, int64(fs.prof.Granularity))
	if err != nil {
		return err
	}
	if len(ino.extents) == DirectExtents && ino.indirOff == 0 {
		indirOff, err := fs.alloc.Alloc(IndirectCap * 16)
		if err != nil {
			return err
		}
		ino.indirOff = indirOff
		if err := fs.persistInode(f.idx, inodeField{kind: fieldIndirect}); err != nil {
			return err
		}
	}
	ino.extents = append(ino.extents, extent{off, size})
	return fs.persistInode(f.idx, inodeField{kind: fieldExtent, i: len(ino.extents) - 1})
}

// locate maps a logical byte offset to (device offset, bytes contiguous in
// that extent).
func (f *File) locate(off int64) (int64, int64, error) {
	pos := int64(0)
	for _, e := range f.fs.inodes[f.idx].extents {
		if off < pos+e.size {
			within := off - pos
			return e.off + within, e.size - within, nil
		}
		pos += e.size
	}
	return 0, 0, fmt.Errorf("%s: offset %d beyond capacity of %q", f.fs.prof.Name, off, f.name)
}

// Append writes data at the end of the file. Appends are the only write
// path the persistence layer needs (collections are append-only).
func (f *File) Append(data []byte) error {
	fs := f.fs
	fs.charge()
	ino := &fs.inodes[f.idx]
	off := ino.size
	for len(data) > 0 {
		for off >= f.capacityBytes() {
			if err := f.addExtent(); err != nil {
				return err
			}
		}
		devOff, contig, err := f.locate(off)
		if err != nil {
			return err
		}
		n := min(int64(len(data)), contig)
		if err := f.writeChunk(devOff, data[:n], off); err != nil {
			return err
		}
		data = data[n:]
		off += n
	}
	ino.size = off
	if fs.prof.SizeUpdateEveryAppend {
		return fs.persistInode(f.idx, inodeField{kind: fieldSize})
	}
	return nil
}

// writeChunk performs the device write honouring the flavour granularity.
// logical is the file offset of the chunk (used for sector alignment).
func (f *File) writeChunk(devOff int64, data []byte, logical int64) error {
	g := int64(f.fs.prof.Granularity)
	if g <= 1 {
		return f.fs.dev.WriteAt(data, devOff)
	}
	// Sector discipline: round the write range out to sector boundaries.
	// The head sector may contain live bytes from a previous append and
	// must be read-modify-written; the tail is padded (those bytes are
	// beyond the logical size, so padding is harmless).
	start := devOff / g * g
	end := (devOff + int64(len(data)) + g - 1) / g * g
	buf := make([]byte, end-start)
	if devOff > start && logical > 0 {
		// Head sector holds earlier data: read it back first.
		if err := f.fs.dev.ReadAt(buf[:g], start); err != nil {
			return err
		}
	}
	copy(buf[devOff-start:], data)
	return f.fs.dev.WriteAt(buf, start)
}

// ReadAt fills dst from logical offset off.
func (f *File) ReadAt(dst []byte, off int64) error {
	fs := f.fs
	fs.charge()
	if off < 0 || off+int64(len(dst)) > f.Size() {
		return fmt.Errorf("%s: read [%d,+%d) past size %d of %q", fs.prof.Name, off, len(dst), f.Size(), f.name)
	}
	for len(dst) > 0 {
		devOff, contig, err := f.locate(off)
		if err != nil {
			return err
		}
		n := min(int64(len(dst)), contig)
		if err := f.readChunk(dst[:n], devOff); err != nil {
			return err
		}
		dst = dst[n:]
		off += n
	}
	return nil
}

// readChunk reads honouring the flavour granularity: sector flavours
// fetch whole covering sectors.
func (f *File) readChunk(dst []byte, devOff int64) error {
	g := int64(f.fs.prof.Granularity)
	if g <= 1 {
		return f.fs.dev.ReadAt(dst, devOff)
	}
	start := devOff / g * g
	end := (devOff + int64(len(dst)) + g - 1) / g * g
	buf := make([]byte, end-start)
	if err := f.fs.dev.ReadAt(buf, start); err != nil {
		return err
	}
	copy(dst, buf[devOff-start:])
	return nil
}

// Sync persists outstanding metadata (the size field for flavours that
// batch it).
func (f *File) Sync() error {
	f.fs.charge()
	return f.fs.persistInode(f.idx, inodeField{kind: fieldSize})
}

// Truncate discards the file contents, freeing extents.
func (f *File) Truncate() error {
	fs := f.fs
	fs.charge()
	if err := fs.freeExtents(f.idx); err != nil {
		return err
	}
	fs.inodes[f.idx].size = 0
	return fs.persistInode(f.idx, inodeField{kind: fieldSize})
}
