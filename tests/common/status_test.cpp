// dsm::Status / dsm::Result<T> / dsm::Error: the typed failure surface.
// Retryability is fixed per code, Result enforces its arms, and the one
// exception type carries the Status it was thrown with.
#include "common/status.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace dsm {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_FALSE(s.retryable());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, FactoriesFixCodeAndRetryability) {
  // Retryable: repeating the same call could plausibly succeed.
  for (const Status& s : {Status::resource_exhausted("x"),
                          Status::fault_injected("x"), Status::io_error("x")}) {
    EXPECT_TRUE(s.retryable()) << s.to_string();
    EXPECT_FALSE(s.ok());
  }
  // Not retryable: repeating must fail the same way.
  for (const Status& s :
       {Status::invalid_argument("x"), Status::infeasible("x"),
        Status::deadline_exceeded("x"), Status::cancelled("x"),
        Status::unavailable("x"), Status::corrupt_journal("x"),
        Status::quarantined("x"), Status::internal("x")}) {
    EXPECT_FALSE(s.retryable()) << s.to_string();
    EXPECT_FALSE(s.ok());
  }
}

TEST(Status, ToStringCombinesCodeAndMessage) {
  EXPECT_EQ(Status::invalid_argument("bad n").to_string(),
            "INVALID_ARGUMENT: bad n");
  EXPECT_EQ(Status::fault_injected("site x").to_string(),
            "FAULT_INJECTED: site x");
}

TEST(Status, EqualityComparesAllFields) {
  EXPECT_EQ(Status::io_error("a"), Status::io_error("a"));
  EXPECT_FALSE(Status::io_error("a") == Status::io_error("b"));
  EXPECT_FALSE(Status::io_error("a") == Status::internal("a"));
  EXPECT_EQ(Status(), Status());
}

TEST(Status, CodeNamesCoverEveryCode) {
  for (int i = 0; i <= static_cast<int>(StatusCode::kInternal); ++i) {
    const auto c = static_cast<StatusCode>(i);
    EXPECT_STRNE(status_code_name(c), "?");
    EXPECT_EQ(status_code_from_name(status_code_name(c)).value(), c);
  }
  const Result<StatusCode> bad = status_code_from_name("bogus");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(), "unknown status code: bogus");
}

TEST(Error, CarriesTypedStatus) {
  try {
    throw Error(Status::io_error("disk"));
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "disk");
    EXPECT_EQ(e.status().code(), StatusCode::kIoError);
    EXPECT_TRUE(e.status().retryable());
  }
  // A bare message, like every DSM_REQUIRE / DSM_CHECK, is kInternal.
  try {
    DSM_REQUIRE(false, "boom");
  } catch (const Error& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInternal);
    EXPECT_EQ(e.status().message(), e.what());
  }
}

TEST(Result, ValueArm) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, ErrorArm) {
  Result<int> r(Status::infeasible("no fit"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInfeasible);
  EXPECT_THROW(r.value(), Error);  // checked access, not UB
}

TEST(Result, OkStatusCannotBeAnErrorArm) {
  EXPECT_THROW(Result<int>{Status()}, Error);
}

TEST(Result, MoveOutOfValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  const std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(Result, ArrowOperatorReachesMembers) {
  Result<std::string> r(std::string("abc"));
  EXPECT_EQ(r->size(), 3u);
}

}  // namespace
}  // namespace dsm
