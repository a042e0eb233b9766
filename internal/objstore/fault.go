package objstore

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// ErrInjected marks a failure produced by a FaultStore, so tests can tell
// injected faults from genuine store errors with errors.Is.
var ErrInjected = fmt.Errorf("objstore: injected fault")

// FaultConfig says which faults a FaultStore injects. It is plain data
// (JSON-serializable) so a coordinator can ship the exact same fault plan
// to a worker process and both sides reconstruct identical wrappers.
//
// Error scheduling is deterministic two ways: FailFirst makes the first N
// eligible operations fail outright (then the store runs clean — the shape
// retry tests want, since recovery is guaranteed), while ErrorRate draws
// per-operation from a PRNG seeded with Seed (statistically stable, exact
// op unordered under concurrency). Both may be combined.
type FaultConfig struct {
	// Seed seeds the PRNG behind ErrorRate, TornRate and Latency draws.
	Seed int64 `json:"seed"`
	// FailFirst fails the first N eligible operations with ErrInjected.
	FailFirst int `json:"fail_first,omitempty"`
	// ErrorRate is the per-operation probability [0,1) of ErrInjected.
	ErrorRate float64 `json:"error_rate,omitempty"`
	// TornRate is the per-GetRange probability [0,1) of a torn read: the
	// call "succeeds" but the returned bytes are corrupted (bit-flipped
	// tail), the way a read racing an overwrite or a short object copy
	// would look. Torn reads are silent at the store API — catching them is
	// the reader's CRC machinery's job.
	TornRate float64 `json:"torn_rate,omitempty"`
	// TornFirst tears the first N GetRange reads (deterministic counterpart
	// of TornRate, like FailFirst for errors).
	TornFirst int `json:"torn_first,omitempty"`
	// Latency sleeps up to this long (uniform draw) before every
	// operation. Zero disables.
	Latency time.Duration `json:"latency,omitempty"`
	// Ops restricts fault injection to the named operations ("Get",
	// "GetRange", "Put", "Head", "Delete", "List"); empty means all. Reads
	// of keys outside Prefix are always clean.
	Ops []string `json:"ops,omitempty"`
	// Prefix, when non-empty, restricts injection to keys with this
	// prefix (e.g. only base-table objects, or only intermediates).
	Prefix string `json:"prefix,omitempty"`
}

// FaultStats counts what a FaultStore actually did, so tests can assert
// injection happened (a fault test that never fired proves nothing).
type FaultStats struct {
	Ops            int64 // eligible operations seen
	InjectedErrors int64
	TornReads      int64
}

// FaultStore wraps a Store and injects deterministic, seeded faults:
// errors, latency and torn GetRange reads. It is safe for concurrent use
// and intended for any package's tests — wrap the store under an engine,
// a cache, or a worker process and drive recovery paths on purpose.
type FaultStore struct {
	inner Store
	cfg   FaultConfig
	ops   map[string]bool

	mu    sync.Mutex
	rng   *rand.Rand
	fails int // FailFirst consumed
	torn  int // TornFirst consumed
	stats FaultStats
}

// NewFaultStore wraps inner with the given fault plan.
func NewFaultStore(inner Store, cfg FaultConfig) *FaultStore {
	f := &FaultStore{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if len(cfg.Ops) > 0 {
		f.ops = make(map[string]bool, len(cfg.Ops))
		for _, op := range cfg.Ops {
			f.ops[op] = true
		}
	}
	return f
}

// Inner returns the wrapped store.
func (f *FaultStore) Inner() Store { return f.inner }

// Stats returns a snapshot of injection counters.
func (f *FaultStore) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// eligible reports whether faults apply to this op/key at all.
func (f *FaultStore) eligible(op, key string) bool {
	if f.ops != nil && !f.ops[op] {
		return false
	}
	return strings.HasPrefix(key, f.cfg.Prefix)
}

// before runs the op's latency and error decision. It returns a non-nil
// error when the op must fail, and whether a GetRange result should be
// torn. All PRNG draws happen under the lock in call order, so a given
// serial op sequence replays identically for a given seed.
func (f *FaultStore) before(op, key string) (error, bool) {
	if !f.eligible(op, key) {
		return nil, false
	}
	f.mu.Lock()
	f.stats.Ops++
	var sleep time.Duration
	if f.cfg.Latency > 0 {
		sleep = time.Duration(f.rng.Int63n(int64(f.cfg.Latency)))
	}
	fail := false
	if f.fails < f.cfg.FailFirst {
		f.fails++
		fail = true
	} else if f.cfg.ErrorRate > 0 && f.rng.Float64() < f.cfg.ErrorRate {
		fail = true
	}
	tear := false
	if !fail && op == "GetRange" {
		if f.torn < f.cfg.TornFirst {
			f.torn++
			tear = true
		} else if f.cfg.TornRate > 0 && f.rng.Float64() < f.cfg.TornRate {
			tear = true
		}
	}
	if fail {
		f.stats.InjectedErrors++
	}
	if tear {
		f.stats.TornReads++
	}
	f.mu.Unlock()

	if sleep > 0 {
		time.Sleep(sleep)
	}
	if fail {
		return fmt.Errorf("%w: %s %s", ErrInjected, op, key), false
	}
	return nil, tear
}

// Put implements Store.
func (f *FaultStore) Put(key string, data []byte) error {
	if err, _ := f.before("Put", key); err != nil {
		return err
	}
	return f.inner.Put(key, data)
}

// Get implements Store.
func (f *FaultStore) Get(key string) ([]byte, error) {
	if err, _ := f.before("Get", key); err != nil {
		return nil, err
	}
	return f.inner.Get(key)
}

// GetRange implements Store. A torn read flips bits in the tail half of
// the returned buffer — the data is the right length but wrong, which only
// checksums can catch.
func (f *FaultStore) GetRange(key string, off, length int64) ([]byte, error) {
	err, tear := f.before("GetRange", key)
	if err != nil {
		return nil, err
	}
	data, err := f.inner.GetRange(key, off, length)
	if err != nil || !tear || len(data) == 0 {
		return data, err
	}
	for i := len(data) / 2; i < len(data); i++ {
		data[i] ^= 0xA5
	}
	return data, nil
}

// Head implements Store.
func (f *FaultStore) Head(key string) (ObjectInfo, error) {
	if err, _ := f.before("Head", key); err != nil {
		return ObjectInfo{}, err
	}
	return f.inner.Head(key)
}

// Delete implements Store.
func (f *FaultStore) Delete(key string) error {
	if err, _ := f.before("Delete", key); err != nil {
		return err
	}
	return f.inner.Delete(key)
}

// List implements Store.
func (f *FaultStore) List(prefix string) ([]ObjectInfo, error) {
	if err, _ := f.before("List", prefix); err != nil {
		return nil, err
	}
	return f.inner.List(prefix)
}

var _ Store = (*FaultStore)(nil)
