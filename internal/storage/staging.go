package storage

import (
	"context"
	"errors"
	"sync"
)

// Entry is one staged sample.
type Entry struct {
	Pos int
	ID  int32
	// Source is a producer-defined tag (nopfs: where the sample was
	// fetched from), returned unchanged by Pop.
	Source uint8
	Data   []byte
}

// Staging is the staging buffer of paper Sec. 5.2.2: a byte-budget circular
// buffer filled by concurrent prefetcher goroutines and drained in exact
// access order by the trainer. Producers may complete out of order; Pop
// always delivers position 0, 1, 2, ... Samples are dropped on Pop (the
// paper's Rule 2-4 approximation: a consumed sample is the best eviction
// candidate).
type Staging struct {
	capBytes int64

	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	pending  map[int]Entry
	used     int64
	nextPop  int
	closed   bool
}

// ErrClosed is returned by operations on a closed staging buffer.
var ErrClosed = errors.New("storage: staging buffer closed")

// NewStaging returns a staging buffer with the given byte budget.
func NewStaging(capBytes int64) *Staging {
	s := &Staging{capBytes: capBytes, pending: make(map[int]Entry)}
	s.notFull = sync.NewCond(&s.mu)
	s.notEmpty = sync.NewCond(&s.mu)
	return s
}

// noopStop is watch's return for contexts that can never be canceled.
var noopStop = func() bool { return false }

// watch wakes every waiter when ctx is canceled, so a Push/Pop blocked on a
// condition variable observes the cancellation. Callers register it lazily,
// under s.mu, only when actually about to Cond.Wait — the common non-blocking
// path stays free of AfterFunc bookkeeping. Registration under the mutex is
// what closes the lost-wakeup window: the callback also takes s.mu before
// broadcasting, so it cannot fire between the caller's ctx check and its
// Wait. Uncancellable contexts (context.Background and friends) skip the
// registration entirely.
func (s *Staging) watch(ctx context.Context) (stop func() bool) {
	if ctx.Done() == nil {
		return noopStop
	}
	return context.AfterFunc(ctx, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.notFull.Broadcast()
		s.notEmpty.Broadcast()
	})
}

// Push inserts the sample fetched for stream position e.Pos, blocking while
// the byte budget is exhausted. The producer owning the next position to be
// consumed is always admitted, so a sample larger than the whole budget
// cannot deadlock the pipeline. Canceling ctx unblocks the call with ctx's
// error.
func (s *Staging) Push(ctx context.Context, e Entry) error {
	pos, size := e.Pos, int64(len(e.Data))
	s.mu.Lock()
	defer s.mu.Unlock()
	var stop func() bool
	for !s.closed && ctx.Err() == nil && s.used+size > s.capBytes && pos != s.nextPop {
		if stop == nil {
			stop = s.watch(ctx)
			defer stop()
		}
		s.notFull.Wait()
	}
	if s.closed {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if _, dup := s.pending[pos]; dup {
		return errors.New("storage: duplicate staging position")
	}
	s.pending[pos] = e
	s.used += size
	s.notEmpty.Broadcast()
	return nil
}

// Pop removes and returns the entry for the next stream position, blocking
// until it has been staged. It returns ErrClosed after Close once the
// in-order prefix has drained, and ctx's error if the context is canceled
// while waiting.
func (s *Staging) Pop(ctx context.Context) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var stop func() bool
	for {
		if err := ctx.Err(); err != nil {
			return Entry{}, err
		}
		if e, ok := s.pending[s.nextPop]; ok {
			delete(s.pending, s.nextPop)
			s.nextPop++
			s.used -= int64(len(e.Data))
			s.notFull.Broadcast()
			return e, nil
		}
		if s.closed {
			return Entry{}, ErrClosed
		}
		if stop == nil {
			stop = s.watch(ctx)
			defer stop()
		}
		s.notEmpty.Wait()
	}
}

// Used returns the bytes currently staged.
func (s *Staging) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Close wakes all waiters; Pop drains staged in-order entries then reports
// ErrClosed, Push fails immediately.
func (s *Staging) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.notFull.Broadcast()
	s.notEmpty.Broadcast()
}
