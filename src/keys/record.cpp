#include "keys/record.hpp"

#include "common/error.hpp"

namespace dsm::keys {
namespace {

constexpr RecordTypeInfo kInfos[] = {
    {RecordType::kU32, "u32", sizeof(Key), false},
    {RecordType::kKeyPayload32, "kv32", sizeof(Key) + sizeof(Payload), true},
};

}  // namespace

const RecordTypeInfo& record_info(RecordType t) {
  for (const RecordTypeInfo& i : kInfos) {
    if (i.type == t) return i;
  }
  throw Error("unregistered record type");
}

const char* record_name(RecordType t) {
  return enum_name<RecordType>(kRecordTypeNames, t);
}

Result<RecordType> record_from_name(const std::string& name) {
  return enum_from_name<RecordType>(kRecordTypeNames, name, "record type");
}

}  // namespace dsm::keys
