"""Seeded banned patterns (checker fixture — never run)."""

import pickle


def risky(raw):
    try:
        return pickle.loads(raw)  # SEEDED: pickle-loads
    except:  # SEEDED: bare-except  # noqa: E722
        return None


def collect(item, bucket=[]):  # SEEDED: mutable-default
    bucket.append(item)
    return bucket


def fetch(url):
    import urllib.request

    with urllib.request.urlopen(url) as resp:  # SEEDED: second-transport
        return resp.read()
