/// \file token_codec.hpp
/// \brief Test codec that observes a CancelToken inside a CBench job.
///
/// Wraps a registered codec and checks the token before every compress —
/// what a stage-boundary check inside a job does — so tests can put
/// cancellation and deadlines inside the jobs CBench sweeps and the
/// optimizer schedule, neither of which takes a token itself.
#pragma once

#include <memory>
#include <utility>

#include "common/cancel.hpp"
#include "foresight/compressor.hpp"

namespace cosmo::foresight {

class TokenCheckingCompressor final : public Compressor {
 public:
  TokenCheckingCompressor(std::unique_ptr<Compressor> inner, CancelToken token)
      : inner_(std::move(inner)), token_(std::move(token)) {}

  [[nodiscard]] const CodecCapabilities& capabilities() const override {
    return inner_->capabilities();
  }

  [[nodiscard]] std::unique_ptr<CodecSession> open_session(ScratchArena* arena,
                                                           ThreadPool* pool) override {
    return std::make_unique<Session>(inner_->open_session(arena, pool), token_);
  }

 private:
  class Session final : public CodecSession {
   public:
    Session(std::unique_ptr<CodecSession> inner, CancelToken token)
        : CodecSession(nullptr), inner_(std::move(inner)), token_(std::move(token)) {}

    void compress(const Field& field, const CompressorConfig& config,
                  CompressResult& out) override {
      token_.check("compress");
      inner_->compress(field, config, out);
    }

    void decompress(const CompressResult& compressed, DecompressResult& out) override {
      inner_->decompress(compressed, out);
    }

   private:
    std::unique_ptr<CodecSession> inner_;
    CancelToken token_;
  };

  std::unique_ptr<Compressor> inner_;
  CancelToken token_;
};

/// A token whose check() throws CancelledError (\p deadline false) or
/// DeadlineExceededError (\p deadline true).
inline CancelToken stopped_token(bool deadline) {
  if (deadline) return CancelToken::with_deadline(0);
  CancelToken token;
  token.cancel();
  return token;
}

}  // namespace cosmo::foresight
