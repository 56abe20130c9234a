package core

import "repro/internal/obs"

// emit records one protection event as a CatCore instant on the acting
// thread's obs track, with the PMO ID as its arg (no-op unless EnableObs
// turned tracing on). The names are attach, grant, silent (a nested
// pair made silent), detach, revoke, self-detach (a sweep-triggered
// detach), randomize and FAULT. The protection-event thread convention
// (-1 = hardware) matches obs.HWThread.
func (r *Runtime) emit(time uint64, thread int, pmoID uint32, name string) {
	if r.obs != nil {
		r.obs.Track(thread).Instant(time, obs.CatCore, name, int64(pmoID))
	}
}
