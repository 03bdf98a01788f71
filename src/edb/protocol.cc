#include "edb/protocol.hh"

#include <sstream>

#include "runtime/protocol_defs.hh"

namespace edb::edbdbg {

namespace proto = runtime::proto;

std::vector<std::uint8_t>
buildFrame(const std::vector<std::uint8_t> &payload)
{
    std::size_t len = payload.size();
    if (len > proto::maxPayload)
        len = proto::maxPayload;
    std::vector<std::uint8_t> frame;
    frame.reserve(len + 3);
    frame.push_back(proto::syncByte);
    frame.push_back(static_cast<std::uint8_t>(len));
    std::uint8_t crc =
        proto::crc8Step(0, static_cast<std::uint8_t>(len));
    for (std::size_t i = 0; i < len; ++i) {
        frame.push_back(payload[i]);
        crc = proto::crc8Step(crc, payload[i]);
    }
    frame.push_back(crc);
    return frame;
}

void
ProtocolEngine::reset()
{
    state = State::Hunt;
    payload.clear();
    expected = 0;
    runningCrc = 0;
}

void
ProtocolEngine::onByte(std::uint8_t byte, sim::Tick when)
{
    // A stale partial frame (dropped byte, interrupted sender) must
    // not swallow the next frame: expire it on inter-byte gaps.
    if (state != State::Hunt && interByteTimeout > 0 &&
        when - lastByteAt > interByteTimeout) {
        ++stats_.resyncs;
        reset();
    }
    lastByteAt = when;

    switch (state) {
      case State::Hunt:
        if (byte == proto::syncByte) {
            state = State::Len;
        } else {
            ++stats_.strayBytes;
        }
        break;

      case State::Len:
        if (byte == proto::syncByte) {
            // Repeated SYNC (idle fill or a false sync right before
            // a real one): stay here, the next byte is the length.
            ++stats_.strayBytes;
            break;
        }
        if (byte == 0 || byte > proto::maxPayload) {
            // Implausible length: treat as a false sync.
            ++stats_.strayBytes;
            state = State::Hunt;
            break;
        }
        expected = byte;
        payload.clear();
        runningCrc = proto::crc8Step(0, byte);
        state = State::Payload;
        break;

      case State::Payload:
        payload.push_back(byte);
        runningCrc = proto::crc8Step(runningCrc, byte);
        if (payload.size() >= expected)
            state = State::Crc;
        break;

      case State::Crc:
        state = State::Hunt;
        if (byte != runningCrc) {
            ++stats_.crcErrors;
            if (byte == proto::syncByte) {
                // A dropped byte upstream slid the next frame's SYNC
                // into this frame's CRC slot. Resume at its length
                // byte so one lost byte can't destroy two frames.
                ++stats_.resyncs;
                state = State::Len;
            }
            break;
        }
        ++stats_.framesOk;
        dispatch();
        break;
    }
}

void
ProtocolEngine::dispatch()
{
    // The payload passed its CRC; parse it as one complete message.
    // A structurally bogus payload (truncated id, inconsistent
    // printf argument count) is counted and dropped — handlers only
    // ever see well-formed events.
    if (payload.empty())
        return;
    if (handlers.rawFrame && handlers.rawFrame(payload))
        return;
    std::uint8_t type = payload[0];
    switch (type) {
      case proto::msgAssertFail:
      case proto::msgBkptHit: {
        if (payload.size() != 3) {
            ++stats_.malformed;
            return;
        }
        std::uint16_t id = static_cast<std::uint16_t>(
            payload[1] | (std::uint16_t(payload[2]) << 8));
        if (type == proto::msgAssertFail) {
            if (handlers.assertFail)
                handlers.assertFail(id);
        } else if (handlers.bkptHit) {
            handlers.bkptHit(id);
        }
        break;
      }

      case proto::msgGuardBegin:
        if (payload.size() != 1) {
            ++stats_.malformed;
            return;
        }
        if (handlers.guardBegin)
            handlers.guardBegin();
        break;

      case proto::msgGuardEnd:
        if (payload.size() != 1) {
            ++stats_.malformed;
            return;
        }
        if (handlers.guardEnd)
            handlers.guardEnd();
        break;

      case proto::msgPrintf: {
        // [type, nargs, args (4 LE each), fmt ..., NUL]
        if (payload.size() < 3) {
            ++stats_.malformed;
            return;
        }
        std::size_t nargs = payload[1];
        std::size_t fmt_at = 2 + 4 * nargs;
        if (payload.size() < fmt_at + 1 ||
            payload.back() != 0) {
            ++stats_.malformed;
            return;
        }
        std::vector<std::uint32_t> args;
        args.reserve(nargs);
        for (std::size_t a = 0; a < nargs; ++a) {
            std::uint32_t v = 0;
            for (int b = 0; b < 4; ++b) {
                v |= std::uint32_t(payload[2 + 4 * a + b])
                     << (8 * b);
            }
            args.push_back(v);
        }
        std::string fmt(payload.begin() + fmt_at,
                        payload.end() - 1);
        if (handlers.printfText)
            handlers.printfText(formatPrintf(fmt, args));
        break;
      }

      case proto::msgReadReply: {
        std::vector<std::uint8_t> data(payload.begin() + 1,
                                       payload.end());
        if (handlers.readReply)
            handlers.readReply(data);
        break;
      }

      case proto::msgWriteAck:
        if (payload.size() != 1) {
            ++stats_.malformed;
            return;
        }
        if (handlers.writeAck)
            handlers.writeAck();
        break;

      case proto::msgWaitRestore:
        if (payload.size() != 1) {
            ++stats_.malformed;
            return;
        }
        if (handlers.waitRestore)
            handlers.waitRestore();
        break;

      default:
        // Unknown type with a valid CRC: forward-compat, drop.
        ++stats_.malformed;
        break;
    }
}

std::string
formatPrintf(const std::string &fmt,
             const std::vector<std::uint32_t> &args)
{
    std::ostringstream out;
    std::size_t arg_index = 0;
    for (std::size_t i = 0; i < fmt.size(); ++i) {
        char c = fmt[i];
        if (c != '%' || i + 1 >= fmt.size()) {
            out << c;
            continue;
        }
        char spec = fmt[++i];
        std::uint32_t value =
            arg_index < args.size() ? args[arg_index] : 0;
        switch (spec) {
          case 'd':
            out << static_cast<std::int32_t>(value);
            ++arg_index;
            break;
          case 'u':
            out << value;
            ++arg_index;
            break;
          case 'x':
            out << std::hex << value << std::dec;
            ++arg_index;
            break;
          case 'c':
            out << static_cast<char>(value);
            ++arg_index;
            break;
          case '%':
            out << '%';
            break;
          default:
            out << '%' << spec;
            break;
        }
    }
    return out.str();
}

} // namespace edb::edbdbg
