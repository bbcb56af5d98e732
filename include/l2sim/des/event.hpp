// Allocation-free event callable for the DES kernel.
//
// InlineEvent is a move-only, type-erased `void()` callable with a fixed
// inline buffer sized for the capture sets the simulator actually creates
// (`[this, conn]`, `[this, conn, bytes]`, ... — a pointer, a shared_ptr and
// a few scalars). Callables that fit are stored in place: scheduling an
// event performs zero heap allocations. The layers above keep their hot
// events inside the buffer: a des::Resource queues job records rather
// than callables, so its completion event captures only `this`, and a VIA
// message is itself the job record at each resource it visits, so of its
// stages only the topology hop schedules a callable, which captures just
// the network and the record. Oversized captures — now rare, e.g. the
// flow-network bulk path, whose completion captures the caller's
// InlineEvent — spill into EventArena, a thread-local size-classed free
// list, so even the spill path stops allocating once the simulation
// reaches steady state.
//
// Contrast with std::function: libstdc++'s inline buffer is 16 bytes, so
// nearly every event the simulator schedules used to heap-allocate, and the
// scheduler's heap moved those 32-byte std::function objects around on
// every sift. InlineEvent gives the kernel a buffer sized for the workload
// and a stable home (the scheduler's slot pool) so the hot path never
// touches the allocator and the heap sifts 24-byte POD keys instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace l2s::des {

/// Thread-local free-list arena for event captures that do not fit the
/// inline buffer. Blocks are binned by size class and recycled instead of
/// returned to the global allocator; each simulation runs on one thread,
/// so allocate/deallocate always hit the same arena and need no locks.
class EventArena {
 public:
  struct Stats {
    std::uint64_t fresh_blocks = 0;  ///< blocks obtained from operator new
    std::uint64_t reused_blocks = 0; ///< blocks served from a free list
    std::uint64_t oversize = 0;      ///< requests too big for any size class
    std::uint64_t outstanding = 0;   ///< blocks currently live
  };

  [[nodiscard]] static void* allocate(std::size_t size);
  static void deallocate(void* p, std::size_t size) noexcept;

  /// This thread's counters (tests and the kernel bench read these).
  [[nodiscard]] static Stats stats() noexcept;

  /// Release every cached free block to the global allocator and zero the
  /// counters. Outstanding blocks are untouched.
  static void trim() noexcept;
};

/// Move-only type-erased `void()` callable with inline small-buffer storage.
class InlineEvent {
 public:
  /// Inline capture capacity. 48 bytes holds the simulator's common shapes
  /// — `[this, conn]` (8 + 16), `[this, conn, current, owner, file_bytes]`
  /// (40) — while keeping sizeof(InlineEvent) to a single cache line.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = 16;

  InlineEvent() noexcept = default;
  InlineEvent(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineEvent> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  InlineEvent(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_.inline_buf)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      void* block = EventArena::allocate(sizeof(Fn));
      ::new (block) Fn(std::forward<F>(f));
      storage_.heap = block;
      ops_ = &heap_ops<Fn>;
    }
  }

  InlineEvent(InlineEvent&& other) noexcept { move_from(other); }

  InlineEvent& operator=(InlineEvent&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(other);
    }
    return *this;
  }

  InlineEvent& operator=(std::nullptr_t) noexcept {
    destroy();
    ops_ = nullptr;
    return *this;
  }

  InlineEvent(const InlineEvent&) = delete;
  InlineEvent& operator=(const InlineEvent&) = delete;

  ~InlineEvent() { destroy(); }

  void operator()() { ops_->invoke(target()); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }
  friend bool operator==(const InlineEvent& e, std::nullptr_t) noexcept { return !e; }

  /// True when the callable lives in the inline buffer (no arena block).
  [[nodiscard]] bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->spill_size == 0;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-construct `dst` from `src` and destroy `src`. nullptr means the
    // callable is trivially copyable and relocates via plain memcpy — the
    // common case (captures of `this`, raw pointers and scalars), kept
    // branch-cheap because the kernel relocates every event twice (into
    // its slot, then out to fire). Spilled events relocate by stealing
    // the arena block pointer and never consult this.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;  ///< nullptr = trivially destructible
    std::size_t spill_size;           ///< arena block size; 0 = stored inline
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
              static_cast<Fn*>(src)->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
      0,
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      nullptr,  // heap relocation steals the pointer; never consulted
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
      sizeof(Fn),
  };

  [[nodiscard]] void* target() noexcept {
    return ops_->spill_size == 0 ? static_cast<void*>(storage_.inline_buf)
                                 : storage_.heap;
  }

  void destroy() noexcept {
    if (ops_ == nullptr) return;
    if (ops_->spill_size == 0) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_.inline_buf);
    } else {
      if (ops_->destroy != nullptr) ops_->destroy(storage_.heap);
      EventArena::deallocate(storage_.heap, ops_->spill_size);
    }
  }

  void move_from(InlineEvent& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->spill_size != 0) {
        storage_.heap = other.storage_.heap;
      } else if (ops_->relocate == nullptr) {
        // Trivially copyable: copying the whole buffer (tail included)
        // beats an indirect call for these 48 bytes.
        __builtin_memcpy(storage_.inline_buf, other.storage_.inline_buf, kInlineSize);
      } else {
        ops_->relocate(storage_.inline_buf, other.storage_.inline_buf);
      }
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  union Storage {
    alignas(kInlineAlign) unsigned char inline_buf[kInlineSize];
    void* heap;
  } storage_;
};

static_assert(sizeof(InlineEvent) == 64, "one event header per cache line");

}  // namespace l2s::des
