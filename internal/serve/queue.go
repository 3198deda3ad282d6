package serve

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// maxFinishedJobs is how many finished jobs the scheduler remembers (each
// holds its full result). Past it the oldest finished job is forgotten and
// its id answers UnknownJobError; queued and running jobs are never dropped.
// Not smaller: on short jobs a few hundred results are so little live heap
// that the collector runs every handful of jobs (flashmark serve-mix: +13%
// op time at 256, +4% at 1024, against never forgetting).
const maxFinishedJobs = 1024

// SchedulerConfig bounds the scheduler. Zero values select the defaults.
type SchedulerConfig struct {
	// MaxConcurrent is the number of jobs allowed to execute at once
	// (default 4). Additional admitted jobs wait in the pending queue.
	MaxConcurrent int
	// QueueDepth bounds the pending queue (default 16). Submissions arriving
	// with all execution slots busy and the queue full get QueueFullError.
	QueueDepth int
	// TenantQuota caps one tenant's queued+running jobs (default 0 =
	// unlimited). Exceeding it gets QuotaError.
	TenantQuota int
	// Workers and Threads are the engine defaults for jobs that do not set
	// them in params (defaults 4 and 1).
	Workers int
	Threads int
}

func (c *SchedulerConfig) applyDefaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
}

// Scheduler admits, queues, and executes jobs against a catalog. Admission
// is strict and synchronous: a Submit either returns an admitted *Job (its
// graph handle resolved, so a later eviction cannot fail it) or a typed
// rejection. Execution is bounded by MaxConcurrent; overflow waits FIFO in
// a bounded pending queue.
type Scheduler struct {
	cfg SchedulerConfig
	cat *Catalog
	met *Metrics

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string // submission order, for List
	finished  int      // jobs in `jobs` that reached a terminal state
	pending   []*Job
	running   int
	perTenant map[string]int
	nextID    int
	closed    bool
	idle      sync.WaitGroup // one unit per admitted, unfinished job
}

// NewScheduler returns a scheduler over cat. met may be nil.
func NewScheduler(cfg SchedulerConfig, cat *Catalog, met *Metrics) *Scheduler {
	cfg.applyDefaults()
	if met == nil {
		met = NewMetrics()
	}
	return &Scheduler{
		cfg:       cfg,
		cat:       cat,
		met:       met,
		jobs:      make(map[string]*Job),
		perTenant: make(map[string]int),
	}
}

// Submit admits req or rejects it with a typed error. On admission the job
// is queued (or started immediately if a slot is free) and its *Job returned.
func (s *Scheduler) Submit(req *JobRequest) (*Job, error) {
	// Resolve the graph before taking the scheduler lock: catalog misses and
	// graph-dependent validation are rejections, not admissions.
	h, err := s.cat.Get(req.Graph)
	if err != nil {
		s.met.reject(err)
		return nil, err
	}
	if err := validateAgainstGraph(req, h.Graph()); err != nil {
		s.met.reject(err)
		return nil, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.met.reject(ErrServerClosed)
		return nil, ErrServerClosed
	}
	if s.cfg.TenantQuota > 0 && s.perTenant[req.Tenant] >= s.cfg.TenantQuota {
		err := &QuotaError{Tenant: req.Tenant, Limit: s.cfg.TenantQuota, InFlight: s.perTenant[req.Tenant]}
		s.mu.Unlock()
		s.met.reject(err)
		return nil, err
	}
	if s.running >= s.cfg.MaxConcurrent && len(s.pending) >= s.cfg.QueueDepth {
		err := &QueueFullError{Depth: s.cfg.QueueDepth}
		s.mu.Unlock()
		s.met.reject(err)
		return nil, err
	}

	s.nextID++
	job := &Job{
		ID:       fmt.Sprintf("job-%d", s.nextID),
		Tenant:   req.Tenant,
		Req:      *req,
		Enqueued: time.Now(),
		handle:   h,
		state:    JobQueued,
		done:     make(chan struct{}),
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.perTenant[req.Tenant]++
	s.idle.Add(1)
	if s.running < s.cfg.MaxConcurrent {
		s.running++
		go s.run(job)
	} else {
		s.pending = append(s.pending, job)
	}
	s.mu.Unlock()
	s.met.submitted()
	return job, nil
}

// run executes job, records its outcome, then keeps the slot busy draining
// the pending queue until it is empty.
func (s *Scheduler) run(job *Job) {
	for job != nil {
		job.setRunning()
		start := time.Now()
		res, err := job.execute(s.cfg.Workers, s.cfg.Threads)
		job.finish(res, err)
		s.met.finished(err == nil, time.Since(start))

		s.mu.Lock()
		s.finished++
		if s.finished > maxFinishedJobs {
			s.forgetOldestFinished()
		}
		s.perTenant[job.Tenant]--
		if s.perTenant[job.Tenant] == 0 {
			delete(s.perTenant, job.Tenant)
		}
		var next *Job
		if len(s.pending) > 0 {
			next = s.pending[0]
			s.pending = s.pending[1:]
		} else {
			s.running--
		}
		s.mu.Unlock()
		s.idle.Done()
		job = next
	}
}

// forgetOldestFinished drops the earliest-submitted finished job. Caller
// holds s.mu and has counted at least one finished job.
func (s *Scheduler) forgetOldestFinished() {
	i := slices.IndexFunc(s.order, func(id string) bool {
		select {
		case <-s.jobs[id].done:
			return true
		default:
			return false
		}
	})
	delete(s.jobs, s.order[i])
	s.order = slices.Delete(s.order, i, i+1)
	s.finished--
}

// Get returns the job with the given id.
func (s *Scheduler) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, &UnknownJobError{ID: id}
	}
	return job, nil
}

// List returns the jobs the scheduler still remembers, in submission order.
func (s *Scheduler) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Depth reports the scheduler's instantaneous load: running jobs and queued
// jobs waiting for a slot.
func (s *Scheduler) Depth() (running, queued int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running, len(s.pending)
}

// Close stops admission and drains: every already-admitted job (running or
// queued) completes before Close returns.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.idle.Wait()
}
