package dramhit

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"dramhit/internal/hashfn"

	"dramhit/internal/workload"
)

func TestBigTableBasic(t *testing.T) {
	bt := NewBigTable(256, 24)
	v := bytes.Repeat([]byte{0xab}, 24)
	if !bt.Put(7, v) {
		t.Fatal("Put failed")
	}
	got := make([]byte, 24)
	if !bt.Get(7, got) || !bytes.Equal(got, v) {
		t.Fatalf("Get = %x", got)
	}
	if bt.Get(8, got) {
		t.Fatal("absent key found")
	}
	if bt.Len() != 1 {
		t.Fatalf("Len = %d", bt.Len())
	}
}

func TestBigTableOverwriteAndDelete(t *testing.T) {
	bt := NewBigTable(128, 40)
	mk := func(b byte) []byte { return bytes.Repeat([]byte{b}, 40) }
	bt.Put(5, mk(1))
	bt.Put(5, mk(2))
	got := make([]byte, 40)
	bt.Get(5, got)
	if got[0] != 2 || got[39] != 2 {
		t.Fatalf("overwrite lost: %x", got[:4])
	}
	if bt.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", bt.Len())
	}
	if !bt.Delete(5) {
		t.Fatal("Delete failed")
	}
	if bt.Get(5, got) {
		t.Fatal("deleted key still present")
	}
	if bt.Delete(5) {
		t.Fatal("double delete reported present")
	}
}

func TestBigTableOddSizes(t *testing.T) {
	// Value sizes that are not multiples of 8 must round-trip exactly.
	for _, vs := range []int{1, 3, 7, 9, 17, 33} {
		bt := NewBigTable(64, vs)
		v := make([]byte, vs)
		for i := range v {
			v[i] = byte(i + 1)
		}
		bt.Put(9, v)
		got := make([]byte, vs)
		if !bt.Get(9, got) || !bytes.Equal(got, v) {
			t.Fatalf("vsize %d: got %x want %x", vs, got, v)
		}
	}
}

func TestBigTableManyKeysWithProbing(t *testing.T) {
	bt := NewBigTable(1024, 32)
	keys := workload.UniqueKeys(1, 700)
	for i, k := range keys {
		v := bytes.Repeat([]byte{byte(i)}, 32)
		if !bt.Put(k, v) {
			t.Fatalf("Put %d failed", i)
		}
	}
	got := make([]byte, 32)
	for i, k := range keys {
		if !bt.Get(k, got) || got[0] != byte(i) || got[31] != byte(i) {
			t.Fatalf("key %d: got %x", i, got[:2])
		}
	}
}

func TestBigTableFullReturnsFalse(t *testing.T) {
	bt := NewBigTable(8, 16)
	keys := workload.UniqueKeys(2, 16)
	accepted := 0
	for _, k := range keys {
		if bt.Put(k, make([]byte, 16)) {
			accepted++
		}
	}
	if accepted != 8 {
		t.Fatalf("accepted %d into 8 slots", accepted)
	}
}

func TestBigTableNoTornReads(t *testing.T) {
	// Writers store values whose 32 bytes are all the same byte; a reader
	// observing two different bytes in one value has seen a torn read —
	// exactly what the version protocol must prevent.
	bt := NewBigTable(64, 32)
	keys := workload.UniqueKeys(3, 8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := make([]byte, 32)
			for i := 0; i < 3000; i++ {
				b := byte(w*64 + i%64)
				for j := range v {
					v[j] = b
				}
				bt.Put(keys[i%len(keys)], v)
			}
		}(w)
	}
	errc := make(chan string, 1)
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		got := make([]byte, 32)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, k := range keys {
				if !bt.Get(k, got) {
					continue
				}
				for j := 1; j < 32; j++ {
					if got[j] != got[0] {
						select {
						case errc <- "torn read observed":
						default:
						}
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	select {
	case e := <-errc:
		t.Fatal(e)
	default:
	}
}

func TestBigTableConcurrentDistinctKeys(t *testing.T) {
	bt := NewBigTable(4096, 24)
	keys := workload.UniqueKeys(4, 2000)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := make([]byte, 24)
			for i := w * 500; i < (w+1)*500; i++ {
				for j := range v {
					v[j] = byte(i)
				}
				if !bt.Put(keys[i], v) {
					t.Errorf("Put(key %d) reported a full table at %d of 4096 slots", i, bt.Len())
				}
			}
		}(w)
	}
	wg.Wait()
	got := make([]byte, 24)
	for i, k := range keys {
		if !bt.Get(k, got) || got[0] != byte(i) {
			t.Fatalf("key %d: (%x, present=%v)", i, got[0], bt.Get(k, got))
		}
	}
	if bt.Len() != 2000 {
		t.Fatalf("Len = %d", bt.Len())
	}
}

// TestBigTablePutWaitsOutLockedSlot holds an empty home slot's version lock,
// as a preempted inserter would, while another Put targets it. Re-inspecting
// the locked slot must not consume the waiter's probe budget: Put used to
// count every retry as a probe and report "table full" after Cap() spins.
func TestBigTablePutWaitsOutLockedSlot(t *testing.T) {
	bt := NewBigTable(8, 16)
	const key = 42
	home := hashfn.Fastrange(bt.hash(key), bt.size)
	bt.versions[home].Store(1)
	done := make(chan bool, 1)
	go func() { done <- bt.Put(key, make([]byte, 16)) }()
	for i := 0; i < 1000; i++ { // far more re-inspections than Cap()
		runtime.Gosched()
	}
	select {
	case ok := <-done:
		t.Fatalf("Put returned %v while its home slot was still locked", ok)
	default:
	}
	bt.versions[home].Store(2)
	if !<-done {
		t.Fatal("Put reported a full table after waiting out a locked slot")
	}
	if got := make([]byte, 16); !bt.Get(key, got) {
		t.Fatal("key missing after Put")
	}
}

func TestBigTablePanics(t *testing.T) {
	bt := NewBigTable(8, 16)
	for _, fn := range []func(){
		func() { bt.Put(1, make([]byte, 15)) },
		func() { bt.Get(1, make([]byte, 17)) },
		func() { bt.Put(0, make([]byte, 16)) }, // reserved key
		func() { NewBigTable(0, 16) },
		func() { NewBigTable(8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
