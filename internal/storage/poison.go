package storage

import "fmt"

// PoisonByte is what PoisonOnDestroy overwrites a dropped collection's
// blocks with.
const PoisonByte = 0xDB

// PoisonOnDestroy returns f, a factory built by NewFactory, with every
// collection's stored bytes overwritten with PoisonByte just before its
// store frees them — on Destroy and on Truncate. It is for tests of the
// read-in-place contract: a store that reads in place hands out device
// bytes, so a reader that still holds a chunk of a dropped collection,
// or still scans one, reads poison where its records were. A copying
// store's blocks are out of any reader's reach, and poisoning its copy
// changes nothing. The poison is written through the store's own reads,
// which the device charges.
func PoisonOnDestroy(f Factory) Factory {
	base, ok := f.(*factory)
	if !ok {
		panic(fmt.Sprintf("storage: PoisonOnDestroy of a %T, not a NewFactory factory", f))
	}
	return NewFactory(base.name, base.dev, base.blockSize, base.reserves, func(name string) (BlockStore, error) {
		s, err := base.open(name)
		if err != nil {
			return nil, err
		}
		p := &poisonStore{BlockStore: s, blockSize: int64(base.blockSize)}
		if at, ok := s.(BlockStoreAt); ok {
			return &poisonStoreAt{poisonStore: p, at: at}, nil
		}
		return p, nil
	})
}

// poisonStore poisons the bytes [0, size) of its store, which it tracks
// through the writes and reservations it forwards.
type poisonStore struct {
	BlockStore
	blockSize int64
	size      int64
}

func (s *poisonStore) WriteBlock(seq int, data []byte) error {
	if err := s.BlockStore.WriteBlock(seq, data); err != nil {
		return err
	}
	s.size = int64(seq)*s.blockSize + int64(len(data))
	return nil
}

func (s *poisonStore) Truncate() error {
	if err := s.poison(); err != nil {
		return err
	}
	return s.BlockStore.Truncate()
}

func (s *poisonStore) Destroy() error {
	if err := s.poison(); err != nil {
		return err
	}
	return s.BlockStore.Destroy()
}

func (s *poisonStore) poison() error {
	buf := make([]byte, s.blockSize)
	for off := int64(0); off < s.size; off += s.blockSize {
		b, err := s.ReadBlock(off, buf[:min(s.blockSize, s.size-off)])
		if err != nil {
			return err
		}
		for i := range b {
			b[i] = PoisonByte
		}
	}
	s.size = 0
	return nil
}

// poisonStoreAt is a poisonStore over a BlockStoreAt, which keeps its
// collections' range appends.
type poisonStoreAt struct {
	*poisonStore
	at BlockStoreAt
}

func (s *poisonStoreAt) ReserveBlocks(seq, n int) error {
	if err := s.at.ReserveBlocks(seq, n); err != nil {
		return err
	}
	s.size = int64(seq+n) * s.blockSize
	return nil
}

func (s *poisonStoreAt) WriteReserved(seq int, data []byte) error {
	return s.at.WriteReserved(seq, data)
}

func (s *poisonStoreAt) ReleaseBlocks(seq, n int) error {
	if err := s.at.ReleaseBlocks(seq, n); err != nil {
		return err
	}
	s.size = int64(seq) * s.blockSize
	return nil
}
