package serve

import "sync"

// pool is the bounded solve executor behind POST /fit: Workers
// goroutines drain a queue of at most QueueCap waiting jobs. Admission
// control is the queue cap — TrySubmit never blocks, it reports
// rejection and the handler turns that into a 429. This is the
// textbook back-pressure shape for a service whose unit of work is
// seconds-long: a bounded backlog keeps tail latency bounded and makes
// overload visible to the load balancer instead of to the kernel's
// socket buffers.
type pool struct {
	jobs  chan func()
	wg    sync.WaitGroup
	once  sync.Once
	stats *Stats
}

func newPool(workers, queueCap int, stats *Stats) *pool {
	p := &pool{jobs: make(chan func(), queueCap), stats: stats}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				p.stats.queuedFits.Add(-1)
				job()
			}
		}()
	}
	return p
}

// TrySubmit enqueues job unless the queue is full. The job runs
// exactly once on a worker goroutine; the caller is expected to wait
// on a done channel the job closes over.
func (p *pool) TrySubmit(job func()) bool {
	// Count before the send: a worker may receive the job and uncount it
	// before this goroutine runs again, and the gauge must not dip
	// below zero.
	p.stats.queuedFits.Add(1)
	select {
	case p.jobs <- job:
		return true
	default:
		p.stats.queuedFits.Add(-1)
		return false
	}
}

// Close stops accepting work and waits for in-flight jobs to finish.
// Safe to call more than once.
func (p *pool) Close() {
	p.once.Do(func() { close(p.jobs) })
	p.wg.Wait()
}
