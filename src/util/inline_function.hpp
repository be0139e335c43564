// A non-owning, non-allocating callable for the simulation run loop.
//
// Every callback the run loop makes — a DES event action, a machine up/down
// transition, a checkpoint-server edge, a bag completion — is a closure over
// at most two words: `[this]`, `[this, id]`, `[&ctx, bot]`, a coroutine
// handle. InlineFunction stores such a closure in two words of inline storage
// beside one function pointer, so it is itself trivially copyable (three
// words, no destructor, no heap). The two-word, trivially-copyable rule is a
// constraint on the constructor: a larger closure, or one that owns a
// resource (a std::string, a std::function, a shared_ptr), does not compile.
// Bigger state goes in a struct the closure captures by reference.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dg::util {

template <class Signature>
class InlineFunction;

/// Callable holding a trivially copyable closure of at most two words (see
/// file comment). Calling an empty InlineFunction is undefined; test it with
/// operator bool first where emptiness is allowed.
template <class R, class... Args>
class InlineFunction<R(Args...)> {
  static constexpr std::size_t kCapacity = 2 * sizeof(void*);

  template <class F>
  static constexpr bool kStorable =
      std::is_trivially_copyable_v<F> && sizeof(F) <= kCapacity &&
      alignof(F) <= alignof(void*) && std::is_invocable_r_v<R, const F&, Args...>;

 public:
  /// An empty callable.
  constexpr InlineFunction() noexcept = default;
  /// An empty callable, for `start(nullptr, nullptr)`-style call sites.
  constexpr InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Stores a copy of `closure`. Only trivially copyable closures of at most
  /// two words, callable as R(Args...) through a const reference, qualify.
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
             kStorable<std::remove_cvref_t<F>>)
  InlineFunction(F&& closure) noexcept  // NOLINT(google-explicit-constructor)
      : invoke_(&invoke<std::remove_cvref_t<F>>) {
    ::new (static_cast<void*>(storage_)) std::remove_cvref_t<F>(std::forward<F>(closure));
  }

  R operator()(Args... args) const { return invoke_(storage_, std::forward<Args>(args)...); }

  [[nodiscard]] explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  template <class F>
  static R invoke(const void* storage, Args... args) {
    return (*std::launder(static_cast<const F*>(storage)))(std::forward<Args>(args)...);
  }

  alignas(void*) unsigned char storage_[kCapacity] = {};
  R (*invoke_)(const void*, Args...) = nullptr;
};

}  // namespace dg::util
