#include "common/coop.hpp"

#include <sys/mman.h>
#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <vector>

#include "common/error.hpp"

// TSan cannot follow swapcontext on its own; tell it about every fiber
// switch so the -fsanitize=thread tier sees one coherent history per
// logical rank instead of impossible races on the shared stack variables.
#if defined(__SANITIZE_THREAD__)
#define DSM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DSM_TSAN_FIBERS 1
#endif
#endif

#ifdef DSM_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

// ASan tracks one fake-stack region per thread; without the fiber hooks a
// swapcontext to a private stack looks like a wild stack jump and the
// -fsanitize=address tier would false-positive (or miss real errors on
// fiber stacks). Announce every switch, and let a finished fiber's fake
// stack be reclaimed by passing a null save slot on its last yield.
#if defined(__SANITIZE_ADDRESS__)
#define DSM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DSM_ASAN_FIBERS 1
#endif
#endif

#ifdef DSM_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// GCC flags locals live across swapcontext with -Wclobbered because it
// models the call like setjmp. swapcontext is a full context switch that
// saves and restores every callee-saved register, so the warning is a
// false positive here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wclobbered"
#endif

namespace dsm {
namespace {

// Each rank's body gets a private stack. Sort kernels keep their bulk data
// on the heap; 256 KiB leaves ample headroom for collectives, exception
// unwinding, and instrumented (sanitizer) frames. Virtual memory only —
// untouched pages are never backed.
constexpr std::size_t kFiberStackBytes = 256 * 1024;

// Stacks a thread keeps for its next team: one p = 64 team's worth.
constexpr std::size_t kMaxCachedStacks = 64;

// Fiber stacks are mapped from the kernel, not taken from the malloc
// heap, and each thread keeps the stacks its finished teams hand back for
// its next team. Taken from the heap, a p = 64 team's 16 MiB of stacks
// grew the calling thread's arena, and once freed that span was carved
// into the key arrays of later sorts, so the pages a process kept
// resident depended on its allocation history: one service workload's
// peak RSS read 15.6 to 24.7 MB across runs of the same job mix. A
// cached stack keeps only the pages its deepest frame touched.
class StackCache {
 public:
  StackCache() = default;
  StackCache(const StackCache&) = delete;
  StackCache& operator=(const StackCache&) = delete;
  ~StackCache() {
    for (void* s : free_) ::munmap(s, kFiberStackBytes);
  }

  char* take() {
    void* s = nullptr;
    if (free_.empty()) {
      s = ::mmap(nullptr, kFiberStackBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                 0);
      DSM_CHECK(s != MAP_FAILED, "cannot map a fiber stack");
    } else {
      s = free_.back();
      free_.pop_back();
#ifdef DSM_ASAN_FIBERS
      // The previous team's frames may have left redzones poisoned.
      __asan_unpoison_memory_region(s, kFiberStackBytes);
#endif
    }
    return static_cast<char*>(s);
  }

  void give_back(char* s) {
    if (free_.size() < kMaxCachedStacks) {
      free_.push_back(s);
    } else {
      ::munmap(s, kFiberStackBytes);
    }
  }

 private:
  std::vector<void*> free_;
};

thread_local StackCache tl_stacks;

const char kPoisonMsg[] = "barrier poisoned: a team member failed";

}  // namespace

struct CoopScheduler::Impl {
  struct Fiber {
    ucontext_t ctx{};
    char* stack = nullptr;  // kFiberStackBytes from tl_stacks
    int rank = 0;
    enum class St { kIdle, kRunnable, kParked, kFinished } st = St::kIdle;
    std::uint64_t park_gen = 0;
    std::exception_ptr error;
#ifdef DSM_TSAN_FIBERS
    void* tsan = nullptr;
#endif
#ifdef DSM_ASAN_FIBERS
    void* asan_fake = nullptr;
#endif
  };

  explicit Impl(int np) : nprocs(np) {}

  ~Impl() {
    for (Fiber& f : fibers) {
      if (f.stack != nullptr) tl_stacks.give_back(f.stack);
#ifdef DSM_TSAN_FIBERS
      if (f.tsan != nullptr) __tsan_destroy_fiber(f.tsan);
#endif
    }
  }

  void switch_to(ucontext_t* from, ucontext_t* to, void* to_tsan) {
#ifdef DSM_TSAN_FIBERS
    __tsan_switch_to_fiber(to_tsan, 0);
#else
    (void)to_tsan;
#endif
    DSM_CHECK(swapcontext(from, to) == 0, "fiber context switch failed");
  }

  void resume(Fiber& f) {
    current = &f;
    if (f.st == Fiber::St::kParked) f.st = Fiber::St::kRunnable;
#ifdef DSM_ASAN_FIBERS
    void* main_fake = nullptr;
    __sanitizer_start_switch_fiber(&main_fake, f.stack, kFiberStackBytes);
#endif
#ifdef DSM_TSAN_FIBERS
    switch_to(&main_ctx, &f.ctx, f.tsan);
#else
    switch_to(&main_ctx, &f.ctx, nullptr);
#endif
#ifdef DSM_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(main_fake, nullptr, nullptr);
#endif
    current = nullptr;
  }

  void yield_to_main(Fiber& f) {
#ifdef DSM_ASAN_FIBERS
    // A finished fiber never resumes: hand ASan a null save slot so its
    // fake stack is reclaimed instead of leaked.
    __sanitizer_start_switch_fiber(
        f.st == Fiber::St::kFinished ? nullptr : &f.asan_fake,
        main_stack_bottom, main_stack_size);
#endif
    switch_to(&f.ctx, &main_ctx, main_tsan);
#ifdef DSM_ASAN_FIBERS
    // Reached only when the fiber is resumed again (parked, not finished).
    __sanitizer_finish_switch_fiber(f.asan_fake, nullptr, nullptr);
#endif
  }

  static void trampoline();

  const int nprocs;
  bool poisoned = false;
  bool active = false;  // inside run()
  // The exception that poisoned the team (first failure in the
  // deterministic execution order); ranks released by the poison only
  // record the secondary "barrier poisoned" error.
  std::exception_ptr first_error = nullptr;
  int arrived = 0;
  std::uint64_t generation = 0;
  int finished = 0;
  const std::function<void(int)>* body = nullptr;
  std::vector<Fiber> fibers;
  Fiber* current = nullptr;
  ucontext_t main_ctx{};
  void* main_tsan = nullptr;
#ifdef DSM_ASAN_FIBERS
  // Captured at each fiber's first entry (the switch source is main), so
  // the bounds stay correct even if run() moves host threads between runs.
  const void* main_stack_bottom = nullptr;
  std::size_t main_stack_size = 0;
#endif
};

namespace {

// Trampoline target for makecontext, which cannot carry a pointer
// portably; per-thread so concurrent sweep workers each drive their own
// scheduler.
thread_local CoopScheduler::Impl* tl_running = nullptr;

}  // namespace

void CoopScheduler::Impl::trampoline() {
  Impl* const s = tl_running;
  Fiber* const f = s->current;
#ifdef DSM_ASAN_FIBERS
  // First time on this stack: complete the switch and learn the caller's
  // (main's) stack bounds for the yields back.
  __sanitizer_finish_switch_fiber(nullptr, &s->main_stack_bottom,
                                  &s->main_stack_size);
#endif
  try {
    (*s->body)(f->rank);
  } catch (...) {
    f->error = std::current_exception();
    // A failing rank poisons the team so everyone parked at a barrier is
    // released (and unwinds); ranks already poisoned are just victims.
    if (!s->poisoned) {
      s->first_error = f->error;
      s->poisoned = true;
    }
  }
  f->st = Fiber::St::kFinished;
  ++s->finished;
  s->yield_to_main(*f);
  // Unreachable: finished fibers are never resumed.
  DSM_CHECK(false, "finished fiber resumed");
}

CoopScheduler::CoopScheduler(int nprocs) : impl_(new Impl(nprocs)) {
  DSM_REQUIRE(nprocs >= 1, "cooperative team needs at least one process");
}

CoopScheduler::~CoopScheduler() = default;

void CoopScheduler::poison() { impl_->poisoned = true; }

bool CoopScheduler::poisoned() const { return impl_->poisoned; }

void CoopScheduler::run(const std::function<void(int)>& body) {
  Impl& s = *impl_;
  DSM_REQUIRE(static_cast<bool>(body), "SPMD run needs a body");
  DSM_REQUIRE(!s.active, "cooperative team is already running");

  if (s.nprocs == 1) {
    // Fast path: no fiber, plain call on this stack (arrive_and_wait
    // completes inline for a team of one).
    body(0);
    return;
  }

  if (s.fibers.empty()) {
    s.fibers.resize(static_cast<std::size_t>(s.nprocs));
    for (int r = 0; r < s.nprocs; ++r) {
      auto& f = s.fibers[static_cast<std::size_t>(r)];
      f.rank = r;
      f.stack = tl_stacks.take();
#ifdef DSM_TSAN_FIBERS
      f.tsan = __tsan_create_fiber(0);
#endif
    }
  }

  for (auto& f : s.fibers) {
    DSM_CHECK(getcontext(&f.ctx) == 0, "getcontext failed");
    f.ctx.uc_stack.ss_sp = f.stack;
    f.ctx.uc_stack.ss_size = kFiberStackBytes;
    f.ctx.uc_link = &s.main_ctx;
    makecontext(&f.ctx, &Impl::trampoline, 0);
    f.st = Impl::Fiber::St::kRunnable;
    f.error = nullptr;
  }

  s.active = true;
  s.body = &body;
  s.finished = 0;
  s.first_error = nullptr;
  Impl* const prev = tl_running;
  tl_running = &s;
#ifdef DSM_TSAN_FIBERS
  s.main_tsan = __tsan_get_current_fiber();
#endif

  // Round-robin over resumable fibers. A parked fiber becomes resumable
  // when its round releases (generation advanced) or the team is poisoned
  // (it then unwinds by throwing inside arrive_and_wait).
  bool deadlock = false;
  std::size_t cursor = 0;
  const auto p = static_cast<std::size_t>(s.nprocs);
  while (s.finished < s.nprocs) {
    Impl::Fiber* next = nullptr;
    for (std::size_t i = 0; i < p; ++i) {
      Impl::Fiber& f = s.fibers[(cursor + i) % p];
      const bool parked_released =
          f.st == Impl::Fiber::St::kParked &&
          (f.park_gen != s.generation || s.poisoned);
      if (f.st == Impl::Fiber::St::kRunnable || parked_released) {
        next = &f;
        cursor = (cursor + i + 1) % p;
        break;
      }
    }
    if (next == nullptr) {
      // Every unfinished fiber is parked at a round that can never
      // release (some ranks already finished). Poison so the parked
      // stacks unwind, then report.
      deadlock = true;
      s.poisoned = true;
      continue;
    }
    s.resume(*next);
  }

  tl_running = prev;
  s.body = nullptr;
  s.active = false;

  // Report the root cause, not a symptom: the poisoning exception first,
  // then a genuine deadlock (no rank failed, the ranks just
  // desynchronised), then — for an externally poisoned team — the first
  // per-rank error in rank order.
  if (s.first_error) std::rethrow_exception(s.first_error);
  if (deadlock) {
    throw Error(
        "SPMD deadlock: some ranks finished while others wait at a barrier");
  }
  for (auto& f : s.fibers) {
    if (f.error) std::rethrow_exception(f.error);
  }
}

void CoopScheduler::arrive_and_wait(const std::function<void()>& completion) {
  Impl& s = *impl_;
  if (s.poisoned) throw Error(kPoisonMsg);
  if (++s.arrived == s.nprocs) {
    if (completion) {
      try {
        completion();
      } catch (...) {
        // Leave the round unreleased: parked ranks observe the poison when
        // the scheduler unwinds them.
        if (!s.poisoned) s.first_error = std::current_exception();
        s.poisoned = true;
        throw;
      }
    }
    s.arrived = 0;
    ++s.generation;
    return;  // last arriver continues immediately
  }
  Impl::Fiber* const f = s.current;
  DSM_CHECK(f != nullptr, "barrier wait outside a cooperative rank");
  const std::uint64_t my_gen = s.generation;
  f->st = Impl::Fiber::St::kParked;
  f->park_gen = my_gen;
  s.yield_to_main(*f);
  if (s.poisoned && s.generation == my_gen) throw Error(kPoisonMsg);
}

}  // namespace dsm
